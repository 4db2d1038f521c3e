// Package config holds casperd's runtime settings: the twelve knobs
// that are safe to change on a live server without a restart — the
// slow-query log threshold, trace sampling, admission-control limits,
// the drain deadline, the privacy backend with its knobs, and the
// privacy observatory's ε ceiling and SLOs.
//
// Each setting is one field of Settings, named once: its JSON key is
// the field tag, and Flags binds the same field to its casperd flag
// with the flag's default and help text. casperd fills a Settings from
// its flags, then Load decodes the -config file onto a copy of it at
// startup, on SIGHUP and on POST /-/reload: keys the file names replace
// the flag values, absent keys keep them, so the file only has to name
// what it overrides. Validate is the one rule set for both sources.
//
// Example file:
//
//	{
//	  "slow_query": "50ms",
//	  "trace_sample": 16,
//	  "rate_limit_rps": 100,
//	  "rate_limit_burst": 200,
//	  "max_concurrent": 1024,
//	  "drain_deadline": "10s",
//	  "backend": "geoind",
//	  "backend_epsilon": 0.01,
//	  "backend_min_k": 5,
//	  "epsilon_budget": 1.0,
//	  "slo_min_k_satisfied": 0.99,
//	  "slo_max_linkage": 0.5
//	}
//
// Parsing is strict: unknown keys, trailing data, malformed durations,
// negative values, unregistered backend names, and non-finite or
// non-positive privacy budgets all reject the whole file, and a
// rejected reload leaves the running configuration untouched.
package config

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"casper/internal/anonymizer"
)

// Duration is a time.Duration that unmarshals from a JSON string in
// time.ParseDuration syntax ("50ms", "1m30s").
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("durations are strings like \"50ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Settings is the runtime-reloadable key set. Each field's JSON tag
// is its config file key; Flags gives its flag name, default and
// meaning. No value means "keep the current one": every field is
// applied as it stands.
type Settings struct {
	SlowQuery        Duration `json:"slow_query"`
	TraceSample      int      `json:"trace_sample"`
	RateLimitRPS     float64  `json:"rate_limit_rps"`
	RateLimitBurst   float64  `json:"rate_limit_burst"`
	MaxConcurrent    int      `json:"max_concurrent"`
	DrainDeadline    Duration `json:"drain_deadline"`
	Backend          string   `json:"backend"`
	BackendEpsilon   float64  `json:"backend_epsilon"`
	BackendMinK      int      `json:"backend_min_k"`
	EpsilonBudget    float64  `json:"epsilon_budget"`
	SLOMinKSatisfied float64  `json:"slo_min_k_satisfied"`
	SLOMaxLinkage    float64  `json:"slo_max_linkage"`
}

// Flags binds every setting to its casperd flag on fs and sets each
// field to the flag's default.
func (s *Settings) Flags(fs *flag.FlagSet) {
	fs.DurationVar((*time.Duration)(&s.SlowQuery), "slow-query", 0,
		"log requests slower than this (e.g. 50ms); 0 disables")
	fs.IntVar(&s.TraceSample, "trace-sample", 16,
		"head-sample 1 in N successful requests (1 = all, 0 = none; slow and errored requests are always kept)")
	fs.Float64Var(&s.RateLimitRPS, "rate-limit", 0,
		"per-user token-bucket rate limit in req/s; 0 disables")
	fs.Float64Var(&s.RateLimitBurst, "rate-burst", 0,
		"per-user token-bucket burst size (0 = 2x -rate-limit, at least 1)")
	fs.IntVar(&s.MaxConcurrent, "max-concurrent", 0,
		"global in-flight request ceiling; excess is shed with the retryable overloaded code; 0 disables")
	fs.DurationVar((*time.Duration)(&s.DrainDeadline), "drain", 10*time.Second,
		"graceful-shutdown drain deadline for in-flight requests")
	fs.StringVar(&s.Backend, "backend", anonymizer.DefaultBackend,
		"privacy backend: "+strings.Join(anonymizer.Backends(), ", ")+"; changing it on a live server migrates every registered user")
	fs.Float64Var(&s.BackendEpsilon, "epsilon", anonymizer.DefaultEpsilon,
		"geoind base privacy budget ε, finite and > 0; each user's budget is ε/k")
	fs.IntVar(&s.BackendMinK, "min-k", 1,
		"cluster backend k-anonymity floor, >= 1; 1 is no floor, since every profile has k >= 1")
	fs.Float64Var(&s.EpsilonBudget, "epsilon-budget", 0,
		"per-user cumulative ε ceiling; further cloaks for an exhausted user fail with the budget_exhausted code; 0 disables")
	fs.Float64Var(&s.SLOMinKSatisfied, "slo-min-k-satisfied", 0,
		"privacy-SLO floor on the fraction of region releases meeting requested k, in (0,1]; 0 disables")
	fs.Float64Var(&s.SLOMaxLinkage, "slo-max-linkage", 0,
		"privacy-SLO ceiling on the online linkage estimate, in (0,1]; 0 disables")
}

// Validate checks every setting; the message names the JSON key.
func (s Settings) Validate() error {
	if s.SlowQuery < 0 {
		return fmt.Errorf("slow_query must be >= 0, got %s", time.Duration(s.SlowQuery))
	}
	if s.TraceSample < 0 {
		return fmt.Errorf("trace_sample must be >= 0, got %d", s.TraceSample)
	}
	// The negated comparisons also reject NaN (every comparison with
	// NaN is false); Inf needs its own check where it is refused.
	if !(s.RateLimitRPS >= 0) {
		return fmt.Errorf("rate_limit_rps must be >= 0, got %v", s.RateLimitRPS)
	}
	if !(s.RateLimitBurst >= 0) {
		return fmt.Errorf("rate_limit_burst must be >= 0, got %v", s.RateLimitBurst)
	}
	if s.MaxConcurrent < 0 {
		return fmt.Errorf("max_concurrent must be >= 0, got %d", s.MaxConcurrent)
	}
	if s.DrainDeadline <= 0 {
		return fmt.Errorf("drain_deadline must be > 0, got %s", time.Duration(s.DrainDeadline))
	}
	if !anonymizer.Registered(s.Backend) {
		return fmt.Errorf("backend %q is not registered (registered: %s)",
			s.Backend, strings.Join(anonymizer.Backends(), ", "))
	}
	if !(s.BackendEpsilon > 0) || math.IsInf(s.BackendEpsilon, 0) {
		return fmt.Errorf("backend_epsilon must be finite and > 0, got %v", s.BackendEpsilon)
	}
	if s.BackendMinK < 1 {
		return fmt.Errorf("backend_min_k must be >= 1, got %d", s.BackendMinK)
	}
	if !(s.EpsilonBudget >= 0) || math.IsInf(s.EpsilonBudget, 0) {
		return fmt.Errorf("epsilon_budget must be finite and >= 0, got %v", s.EpsilonBudget)
	}
	if !(s.SLOMinKSatisfied >= 0) || s.SLOMinKSatisfied > 1 {
		return fmt.Errorf("slo_min_k_satisfied must be in [0,1], got %v", s.SLOMinKSatisfied)
	}
	if !(s.SLOMaxLinkage >= 0) || s.SLOMaxLinkage > 1 {
		return fmt.Errorf("slo_max_linkage must be in [0,1], got %v", s.SLOMaxLinkage)
	}
	return nil
}

// Parse decodes a config file's contents onto a copy of base and
// validates the result: keys the file names replace base's values,
// absent keys keep them.
func Parse(b []byte, base Settings) (Settings, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	s := base
	if err := dec.Decode(&s); err != nil {
		return Settings{}, err
	}
	// A second document in the same file is a mangled edit, not config.
	if dec.More() {
		return Settings{}, fmt.Errorf("trailing data after config object")
	}
	if err := s.Validate(); err != nil {
		return Settings{}, err
	}
	return s, nil
}

// Load reads the config file at path and parses it onto base.
func Load(path string, base Settings) (Settings, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Settings{}, err
	}
	s, err := Parse(b, base)
	if err != nil {
		return Settings{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
