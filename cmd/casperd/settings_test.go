package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"casper/internal/config"
)

// settingsFlags maps every runtime setting's flag to its config file
// key. It is derived, not declared: each flag config.Settings.Flags
// binds is set to a fresh value, and the one JSON key that changes is
// its key.
func settingsFlags(t *testing.T) map[string]string {
	t.Helper()
	var s config.Settings
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	s.Flags(fs)
	asMap := func() map[string]string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for k, v := range m {
			out[k] = string(v)
		}
		return out
	}
	keys := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		before := asMap()
		set := false
		for _, v := range []string{"7ms", "7"} {
			if fs.Set(f.Name, v) == nil {
				set = true
				break
			}
		}
		if !set {
			t.Fatalf("flag -%s takes neither a duration nor a number", f.Name)
		}
		var changed []string
		for k, v := range asMap() {
			if before[k] != v {
				changed = append(changed, k)
			}
		}
		if len(changed) != 1 {
			t.Fatalf("flag -%s sets config keys %v; want exactly one", f.Name, changed)
		}
		keys["-"+f.Name] = changed[0]
	})
	if n := len(asMap()); len(keys) != n {
		t.Fatalf("%d flags for %d config keys; every key needs one flag", len(keys), n)
	}
	return keys
}

// reloadRowRE matches a row of the DESIGN.md §10 reloadable-keys
// table: | `key` | `-flag` | semantics |.
var reloadRowRE = regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| `(-[a-z-]+)` \\|")

// TestReloadableKeysTable holds the DESIGN.md §10 table to the code in
// both directions: every config key must have a row naming its flag,
// and every row must name a key and flag that exist.
func TestReloadableKeysTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := bytes.Cut(doc, []byte("\n## 10. "))
	if ok {
		sec, _, _ = bytes.Cut(sec, []byte("\n## "))
	}
	documented := map[string]string{}
	for _, m := range reloadRowRE.FindAllSubmatch(sec, -1) {
		documented[string(m[1])] = string(m[2])
	}
	if len(documented) == 0 {
		t.Fatal("no reloadable-key rows found in DESIGN.md §10; audit is broken")
	}
	want := map[string]string{}
	for fl, key := range settingsFlags(t) {
		want[key] = fl
	}
	var problems []string
	for key, fl := range want {
		switch got, ok := documented[key]; {
		case !ok:
			problems = append(problems, "config key "+key+" ("+fl+") has no row")
		case got != fl:
			problems = append(problems, "row "+key+" names flag "+got+"; its flag is "+fl)
		}
	}
	for key := range documented {
		if _, ok := want[key]; !ok {
			problems = append(problems, "row "+key+" names no config key")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Errorf("DESIGN.md §10 reloadable-keys table: %s", p)
	}
}

// TestFlagAndFileRejectAlike feeds every bad value through the flag and
// through its config file key: both must refuse it, with one message.
func TestFlagAndFileRejectAlike(t *testing.T) {
	cases := []struct{ flag, value, file string }{
		{"-slow-query", "-5ms", `{"slow_query": "-5ms"}`},
		{"-trace-sample", "-1", `{"trace_sample": -1}`},
		{"-rate-limit", "-1", `{"rate_limit_rps": -1}`},
		{"-rate-burst", "-2", `{"rate_limit_burst": -2}`},
		{"-max-concurrent", "-3", `{"max_concurrent": -3}`},
		{"-drain", "0s", `{"drain_deadline": "0s"}`},
		{"-drain", "-1s", `{"drain_deadline": "-1s"}`},
		{"-backend", "onion", `{"backend": "onion"}`},
		{"-backend", "", `{"backend": ""}`},
		{"-epsilon", "0", `{"backend_epsilon": 0}`},
		{"-epsilon", "-0.5", `{"backend_epsilon": -0.5}`},
		{"-min-k", "0", `{"backend_min_k": 0}`},
		{"-min-k", "-2", `{"backend_min_k": -2}`},
		{"-epsilon-budget", "-1", `{"epsilon_budget": -1}`},
		{"-slo-min-k-satisfied", "1.5", `{"slo_min_k_satisfied": 1.5}`},
		{"-slo-min-k-satisfied", "-0.1", `{"slo_min_k_satisfied": -0.1}`},
		{"-slo-max-linkage", "2", `{"slo_max_linkage": 2}`},
		{"-slo-max-linkage", "-1", `{"slo_max_linkage": -1}`},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.flag] = true
		_, flagErr := parseFlags([]string{tc.flag + "=" + tc.value})
		_, fileErr := config.Parse([]byte(tc.file), flagDefaults())
		if flagErr == nil || fileErr == nil {
			t.Errorf("%s=%q: flag error %v, file error %v; want both refused", tc.flag, tc.value, flagErr, fileErr)
			continue
		}
		if flagErr.Error() != fileErr.Error() {
			t.Errorf("%s=%q: flag refused with %q, file key with %q; want one message", tc.flag, tc.value, flagErr, fileErr)
		}
	}
	for fl := range settingsFlags(t) {
		if !covered[fl] {
			t.Errorf("no bad value of %s is tried", fl)
		}
	}

	// Values JSON cannot spell reach the same rules through the flags.
	for _, args := range [][]string{
		{"-epsilon=NaN"}, {"-epsilon=+Inf"}, {"-epsilon-budget=+Inf"}, {"-epsilon-budget=NaN"},
		{"-rate-limit=NaN"}, {"-rate-burst=NaN"}, {"-slo-min-k-satisfied=NaN"}, {"-slo-max-linkage=NaN"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted a non-finite value", args)
		}
	}
	if _, err := parseFlags(nil); err != nil {
		t.Fatalf("the defaults are refused: %v", err)
	}
}

// exitOfMain runs casperd's main with args in a child copy of the test
// binary, which re-enters the calling test, and returns its exit status
// and output. args must make main exit before it serves.
func exitOfMain(t *testing.T, args ...string) (int, string) {
	if os.Getenv("CASPERD_TEST_MAIN") == "1" {
		os.Args = append([]string{"casperd"}, args...)
		main()
		os.Exit(0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "CASPERD_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("casperd %q: %v\n%s", args, err, out)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestInvalidFlagExitsTwo runs casperd's main with a negative
// -trace-sample: it must exit 2 with the config key's message before
// it opens anything.
func TestInvalidFlagExitsTwo(t *testing.T) {
	code, out := exitOfMain(t, "-addr", "127.0.0.1:0", "-targets", "0", "-trace-sample", "-1")
	if code != 2 {
		t.Fatalf("casperd -trace-sample -1 exited %d; want exit status 2\n%s", code, out)
	}
	if !strings.Contains(out, "trace_sample must be >= 0, got -1") {
		t.Fatalf("casperd -trace-sample -1 printed %q; want the trace_sample rule", out)
	}
}

// TestFiltersFlagIsGone: queries always run Algorithm 2 with four
// filters, so -filters is an unknown flag and casperd exits 2.
func TestFiltersFlagIsGone(t *testing.T) {
	code, out := exitOfMain(t, "-addr", "127.0.0.1:0", "-targets", "0", "-filters", "2")
	if code != 2 {
		t.Fatalf("casperd -filters 2 exited %d; want exit status 2\n%s", code, out)
	}
	if !strings.Contains(out, "flag provided but not defined: -filters") {
		t.Fatalf("casperd -filters 2 printed %q; want an unknown-flag error", out)
	}
}

// TestRemovedKeyRestoresFlagEpsilon: a backend_epsilon key removed from
// the file hands ε back to the flag's value, here the default.
func TestRemovedKeyRestoresFlagEpsilon(t *testing.T) {
	saveSampleEvery(t)
	o, err := parseFlags([]string{"-backend", "geoind"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "casper.json")
	if err := os.WriteFile(path, []byte(`{"backend_epsilon": 0.05}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := testServer()
	rel, err := newReloader(srv, o.settings, path)
	if err != nil {
		t.Fatal(err)
	}
	epsilon := func() float64 {
		return srv.Casper().Anonymizer().(interface{ Epsilon() float64 }).Epsilon()
	}
	if got := epsilon(); got != 0.05 {
		t.Fatalf("ε with the key set = %v; want 0.05", got)
	}
	if err := os.WriteFile(path, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rel.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := epsilon(); got != o.settings.BackendEpsilon {
		t.Fatalf("ε after the key was removed = %v; want the flag's %v", got, o.settings.BackendEpsilon)
	}
}

// TestFileRateGetsFlagBurstRule: a rate set in the file and the same
// rate set by flag get the same bucket, burst 0 meaning twice the rate.
func TestFileRateGetsFlagBurstRule(t *testing.T) {
	saveSampleEvery(t)
	burstOf := func(args []string, file string) float64 {
		t.Helper()
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		path := ""
		if file != "" {
			path = filepath.Join(t.TempDir(), "casper.json")
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv := testServer()
		if _, err := newReloader(srv, o.settings, path); err != nil {
			t.Fatal(err)
		}
		rps, burst := srv.RateLimit()
		if rps != 10 {
			t.Fatalf("rate = %v; want 10", rps)
		}
		return burst
	}
	if got := burstOf([]string{"-rate-limit", "10"}, ""); got != 20 {
		t.Fatalf("-rate-limit 10: burst %v; want 20", got)
	}
	if got := burstOf(nil, `{"rate_limit_rps": 10}`); got != 20 {
		t.Fatalf("rate_limit_rps 10 in the file: burst %v; want 20, as for the flag", got)
	}
	// A rate below 0.5 still gets a bucket of one token.
	o, err := parseFlags([]string{"-rate-limit", "0.2"})
	if err != nil {
		t.Fatal(err)
	}
	srv := testServer()
	if _, err := newReloader(srv, o.settings, ""); err != nil {
		t.Fatal(err)
	}
	if _, burst := srv.RateLimit(); burst != 1 {
		t.Fatalf("-rate-limit 0.2: burst %v; want 1", burst)
	}
}
