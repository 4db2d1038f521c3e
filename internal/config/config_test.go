package config

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// defaults returns the settings the flags give when none is set.
func defaults() Settings {
	var s Settings
	s.Flags(flag.NewFlagSet("", flag.ContinueOnError))
	return s
}

func TestParseFull(t *testing.T) {
	s, err := Parse([]byte(`{
		"slow_query": "50ms",
		"trace_sample": 16,
		"rate_limit_rps": 100,
		"rate_limit_burst": 200,
		"max_concurrent": 1024,
		"drain_deadline": "10s"
	}`), defaults())
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.SlowQuery) != 50*time.Millisecond {
		t.Fatalf("SlowQuery = %v; want 50ms", s.SlowQuery)
	}
	if s.TraceSample != 16 {
		t.Fatalf("TraceSample = %v; want 16", s.TraceSample)
	}
	if s.RateLimitRPS != 100 {
		t.Fatalf("RateLimitRPS = %v; want 100", s.RateLimitRPS)
	}
	if s.RateLimitBurst != 200 {
		t.Fatalf("RateLimitBurst = %v; want 200", s.RateLimitBurst)
	}
	if s.MaxConcurrent != 1024 {
		t.Fatalf("MaxConcurrent = %v; want 1024", s.MaxConcurrent)
	}
	if time.Duration(s.DrainDeadline) != 10*time.Second {
		t.Fatalf("DrainDeadline = %v; want 10s", s.DrainDeadline)
	}
}

func TestParsePartial(t *testing.T) {
	// Absent keys keep the base's values; explicit zeros replace them
	// ("disable this").
	base := defaults()
	base.SlowQuery = Duration(time.Second)
	base.MaxConcurrent = 7
	base.TraceSample = 3
	base.RateLimitRPS = 5
	base.RateLimitBurst = 6
	s, err := Parse([]byte(`{"slow_query": "0s", "max_concurrent": 0}`), base)
	if err != nil {
		t.Fatal(err)
	}
	if s.SlowQuery != 0 {
		t.Fatalf("SlowQuery = %v; want explicit 0", s.SlowQuery)
	}
	if s.MaxConcurrent != 0 {
		t.Fatalf("MaxConcurrent = %v; want explicit 0", s.MaxConcurrent)
	}
	if s.TraceSample != base.TraceSample || s.RateLimitRPS != base.RateLimitRPS ||
		s.RateLimitBurst != base.RateLimitBurst || s.DrainDeadline != base.DrainDeadline {
		t.Fatalf("absent keys left the base: %+v", s)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown_key", `{"slow_qurey": "50ms"}`, "unknown field"},
		{"numeric_duration", `{"slow_query": 50}`, "durations are strings"},
		{"malformed_duration", `{"drain_deadline": "ten seconds"}`, "invalid duration"},
		{"negative_rate", `{"rate_limit_rps": -1}`, "rate_limit_rps must be >= 0"},
		{"negative_burst", `{"rate_limit_burst": -2}`, "rate_limit_burst must be >= 0"},
		{"negative_concurrent", `{"max_concurrent": -3}`, "max_concurrent must be >= 0"},
		{"negative_sample", `{"trace_sample": -1}`, "trace_sample must be >= 0"},
		{"negative_slow_query", `{"slow_query": "-5ms"}`, "slow_query must be >= 0"},
		{"zero_drain", `{"drain_deadline": "0s"}`, "drain_deadline must be > 0"},
		{"trailing_data", `{"trace_sample": 1} {"trace_sample": 2}`, "trailing data"},
		{"not_json", `slow_query = 50ms`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in), defaults())
			if err == nil {
				t.Fatalf("Parse(%q) accepted; want rejection", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Parse(%q) error %q; want it to mention %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "casper.json")
	if err := os.WriteFile(path, []byte(`{"trace_sample": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if s.TraceSample != 4 {
		t.Fatalf("TraceSample = %v; want 4", s.TraceSample)
	}

	// Errors carry the path so reload logs are actionable.
	if err := os.WriteFile(path, []byte(`{"nope": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, defaults()); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Load error %v; want it to name %s", err, path)
	}
	if _, err := Load(filepath.Join(dir, "missing.json"), defaults()); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestDurationMarshalRoundTrip(t *testing.T) {
	d := Duration(90 * time.Second)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("MarshalJSON = %s; want \"1m30s\"", b)
	}
	var back Duration
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip = %v; want %v", back, d)
	}
}

func TestParseBackendKeys(t *testing.T) {
	s, err := Parse([]byte(`{
		"backend": "geoind",
		"backend_epsilon": 0.05,
		"backend_min_k": 5
	}`), defaults())
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend != "geoind" {
		t.Fatalf("Backend = %v; want geoind", s.Backend)
	}
	if s.BackendEpsilon != 0.05 {
		t.Fatalf("BackendEpsilon = %v; want 0.05", s.BackendEpsilon)
	}
	if s.BackendMinK != 5 {
		t.Fatalf("BackendMinK = %v; want 5", s.BackendMinK)
	}

	// All four registered names parse; absent knobs keep the base's.
	base := defaults()
	for _, name := range []string{"basic", "adaptive", "cluster", "geoind"} {
		s, err := Parse([]byte(`{"backend": "`+name+`"}`), base)
		if err != nil {
			t.Fatalf("backend %q rejected: %v", name, err)
		}
		if s.BackendEpsilon != base.BackendEpsilon || s.BackendMinK != base.BackendMinK {
			t.Fatalf("absent knobs left the base: %+v", s)
		}
	}
}

func TestParseBackendRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown_backend", `{"backend": "onion"}`, "not registered"},
		{"empty_backend", `{"backend": ""}`, "not registered"},
		{"zero_epsilon", `{"backend_epsilon": 0}`, "backend_epsilon must be finite and > 0"},
		{"negative_epsilon", `{"backend_epsilon": -0.5}`, "backend_epsilon must be finite and > 0"},
		{"zero_min_k", `{"backend_min_k": 0}`, "backend_min_k must be >= 1"},
		{"negative_min_k", `{"backend_min_k": -2}`, "backend_min_k must be >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in), defaults())
			if err == nil {
				t.Fatalf("Parse(%q) accepted; want rejection", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Parse(%q) error %q; want it to mention %q", tc.in, err, tc.wantErr)
			}
		})
	}

	// The unknown-backend error must list what IS registered — it's the
	// operator's first diagnostic when a reload fails.
	_, err := Parse([]byte(`{"backend": "onion"}`), defaults())
	for _, name := range []string{"basic", "adaptive", "cluster", "geoind"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-backend error %q does not list %q", err, name)
		}
	}
}
