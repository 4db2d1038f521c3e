package anonymizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"casper/internal/geom"
)

// This file is the backend table: privacy backends are constructed by
// NAME, so every layer above (core, casperd, casperctl, casper-bench)
// lists and selects them from one place.

// DefaultBackend is the backend used when no name is given — the
// incomplete-pyramid anonymizer, the variant the paper's end-to-end
// experiments use.
const DefaultBackend = "adaptive"

// DefaultEpsilon is the geoind backend's base privacy budget when
// BackendConfig.Epsilon is zero, in 1/universe-units. With the paper's
// 40 km universe (meters), 0.01 puts the 95% confidence radius of a
// k=1 user at ~470 m and scales it linearly with k.
const DefaultEpsilon = 0.01

// BackendConfig parameterizes a backend. Universe, Levels and
// Seed apply to every backend; Epsilon and MinK are per-backend knobs
// a backend is free to ignore (zero always means "backend default").
type BackendConfig struct {
	// Universe is the spatial extent served.
	Universe geom.Rect
	// Levels is the grid-pyramid height H for backends that build one.
	Levels int
	// Seed drives any randomness the backend uses (geoind's noise
	// sampler). Zero is a valid seed.
	Seed int64
	// Epsilon is the geo-indistinguishability base budget, in
	// 1/universe-units; each user's own budget is Epsilon divided by
	// their profile k. Zero selects DefaultEpsilon; negative, NaN and
	// ±Inf are rejected by Validate.
	Epsilon float64
	// MinK floors every profile's k during cluster group formation.
	// Zero means no floor; negative values are rejected by Validate,
	// and layers that take an explicit knob (flags, config file)
	// reject anything below 1.
	MinK int
}

// Validate rejects configurations no backend could act on sensibly.
// The epsilon sweep mirrors the MinOverlap NaN discipline in
// privacyqp: a plain "< 0" check would admit NaN (every comparison
// with NaN is false) and the noise sampler downstream would silently
// produce garbage coordinates.
func (c BackendConfig) Validate() error {
	if !c.Universe.IsValid() || c.Universe.Area() <= 0 {
		return fmt.Errorf("anonymizer: invalid universe %v", c.Universe)
	}
	if c.Levels < 1 {
		return fmt.Errorf("anonymizer: pyramid levels %d, need >= 1", c.Levels)
	}
	if c.Epsilon != 0 && !(c.Epsilon > 0) {
		return fmt.Errorf("anonymizer: epsilon %v, need > 0", c.Epsilon)
	}
	if math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("anonymizer: epsilon %v must be finite", c.Epsilon)
	}
	if c.MinK < 0 {
		return fmt.Errorf("anonymizer: min k %d, need >= 1 (or 0 for no floor)", c.MinK)
	}
	return nil
}

// backends maps each backend name to the function that builds it from
// a validated config.
var backends = map[string]func(BackendConfig) (Anonymizer, error){
	"basic": func(c BackendConfig) (Anonymizer, error) {
		return NewBasic(c.Universe, c.Levels), nil
	},
	"adaptive": func(c BackendConfig) (Anonymizer, error) {
		return NewAdaptive(c.Universe, c.Levels), nil
	},
	"cluster": func(c BackendConfig) (Anonymizer, error) {
		cl := NewCluster(c.Universe, c.Levels)
		if c.MinK > 0 {
			if err := cl.SetMinK(c.MinK); err != nil {
				return nil, err
			}
		}
		return cl, nil
	},
	"geoind": func(c BackendConfig) (Anonymizer, error) {
		g := NewGeoInd(c.Universe, c.Levels, c.Seed)
		if c.Epsilon != 0 {
			if err := g.SetEpsilon(c.Epsilon); err != nil {
				return nil, err
			}
		}
		return g, nil
	},
}

// New validates cfg and builds the named backend; an empty name
// selects DefaultBackend. The unknown-name error spells out the known
// names — it is what casperd prints at startup and what a failed hot
// reload reports.
func New(name string, cfg BackendConfig) (Anonymizer, error) {
	if name == "" {
		name = DefaultBackend
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	build, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("anonymizer: unknown backend %q (registered: %s)",
			name, strings.Join(Backends(), ", "))
	}
	return build(cfg)
}

// Backends lists the backend names, sorted.
func Backends() []string {
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registered reports whether name is a backend.
func Registered(name string) bool {
	_, ok := backends[name]
	return ok
}
