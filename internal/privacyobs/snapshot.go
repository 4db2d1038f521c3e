package privacyobs

import (
	"math"
	"sort"
)

// BackendSnapshot is one backend's release accounting at a point in
// time. Quantiles come from the shared casper_privacy_achieved_k /
// casper_privacy_release_area_m2 histograms (linear interpolation
// inside the crossing bucket, like every quantile this codebase
// reports); means come from exact per-observer sums.
type BackendSnapshot struct {
	Backend        string  `json:"backend"`
	Releases       int64   `json:"releases"`
	RegionReleases int64   `json:"region_releases"`
	KViolations    int64   `json:"k_violations"`
	KMean          float64 `json:"k_mean"`
	KP50           float64 `json:"k_p50"`
	KP99           float64 `json:"k_p99"`
	AreaMean       float64 `json:"area_mean"`
	AreaP50        float64 `json:"area_p50"`
	AreaP99        float64 `json:"area_p99"`
}

// EntropySnapshot is the windowed anonymity-set entropy estimate: the
// mean and minimum of log2(KFound) over the last Window region
// releases (up to the ring capacity).
type EntropySnapshot struct {
	MeanBits float64 `json:"mean_bits"`
	MinBits  float64 `json:"min_bits"`
	Window   int     `json:"window"`
}

// LinkageSnapshot is the online overlap-attack estimate. Estimate is
// the mean surviving area fraction over tracked users with at least
// two overlapping releases in their current window; 0 with
// Evidence=false means no user has linkable history yet.
type LinkageSnapshot struct {
	Estimate     float64 `json:"estimate"`
	Evidence     bool    `json:"evidence"`
	TrackedUsers int     `json:"tracked_users"`
	Untracked    int64   `json:"untracked"`
	Resets       int64   `json:"resets"`
}

// EpsilonSnapshot is the ε-budget ledger for perturbed-mechanism
// backends.
type EpsilonSnapshot struct {
	SpentTotal float64 `json:"spent_total"`
	MaxUser    float64 `json:"max_user"`
	Budget     float64 `json:"budget"`
	Users      int64   `json:"users"`
	Refusals   int64   `json:"refusals"`
}

// SLOSnapshot reports the configured thresholds and the current
// verdict.
type SLOSnapshot struct {
	MinKSatisfied float64 `json:"min_k_satisfied"`
	MaxLinkage    float64 `json:"max_linkage"`
	OK            bool    `json:"ok"`
}

// Snapshot is the full state of the privacy observatory, as served by
// /debug/privacy and rendered by casperctl privacy.
type Snapshot struct {
	Backends           []BackendSnapshot `json:"backends"`
	KSatisfiedFraction float64           `json:"k_satisfied_fraction"`
	Entropy            EntropySnapshot   `json:"entropy"`
	Linkage            LinkageSnapshot   `json:"linkage"`
	Epsilon            EpsilonSnapshot   `json:"epsilon"`
	SLO                SLOSnapshot       `json:"slo"`
}

// Snapshot captures the observer's current state; it is the
// observer's only reader (the casper_privacy_* gauges, /debug/privacy
// and the wire stats block all go through it). Every aggregate is a
// running total, so the lock is held for O(backends + ringSize). Taking
// a snapshot also evaluates the SLO and logs a verdict transition, so
// /debug/privacy readers see transitions even if nothing scrapes
// /metrics.
func (o *Observer) Snapshot() Snapshot {
	var s Snapshot
	o.mu.Lock()
	names := make([]string, 0, len(o.backends))
	for name := range o.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	var region, viol int64
	for _, name := range names {
		bs := o.backends[name]
		b := BackendSnapshot{
			Backend:        name,
			Releases:       bs.releases,
			RegionReleases: bs.regionRel,
			KViolations:    bs.violations,
		}
		if b.RegionReleases > 0 {
			b.KMean = float64(bs.kSum) / float64(b.RegionReleases)
			b.KP50 = bs.inst.kFound.Quantile(0.50)
			b.KP99 = bs.inst.kFound.Quantile(0.99)
		}
		if b.Releases > 0 {
			b.AreaMean = bs.areaSum / float64(b.Releases)
			b.AreaP50 = bs.inst.area.Quantile(0.50)
			b.AreaP99 = bs.inst.area.Quantile(0.99)
		}
		region += bs.regionRel
		viol += bs.violations
		s.Backends = append(s.Backends, b)
	}

	// The k-satisfied fraction is 1 when nothing was released yet (an
	// idle server violates no SLO).
	s.KSatisfiedFraction = 1
	if region > 0 {
		s.KSatisfiedFraction = float64(region-viol) / float64(region)
	}

	if n := int(min(o.ringPos, ringSize)); n > 0 {
		sum, lo := 0.0, math.Inf(1)
		for _, bits := range o.ring[:n] {
			sum += bits
			lo = min(lo, bits)
		}
		s.Entropy = EntropySnapshot{MeanBits: sum / float64(n), MinBits: lo, Window: n}
	}

	s.Linkage = LinkageSnapshot{
		Evidence:     o.linkN > 0,
		TrackedUsers: len(o.linkage),
		Untracked:    o.untracked,
		Resets:       o.linkResets,
	}
	if o.linkN > 0 {
		s.Linkage.Estimate = o.linkSum / float64(o.linkN)
	}

	s.Epsilon = EpsilonSnapshot{
		SpentTotal: o.budgetSpendSum,
		MaxUser:    o.budgetSpendMax,
		Budget:     o.budgetCeiling,
		Users:      int64(len(o.spent)),
		Refusals:   o.budgetRefusals,
	}

	s.SLO = SLOSnapshot{MinKSatisfied: o.sloMinKFrac, MaxLinkage: o.sloMaxLinkage, OK: true}
	if s.SLO.MinKSatisfied > 0 && s.KSatisfiedFraction < s.SLO.MinKSatisfied {
		s.SLO.OK = false
	}
	if s.SLO.MaxLinkage > 0 && s.Linkage.Evidence && s.Linkage.Estimate > s.SLO.MaxLinkage {
		s.SLO.OK = false
	}
	state := int32(2)
	if s.SLO.OK {
		state = 1
	}
	old := o.sloState
	o.sloState = state
	o.mu.Unlock()

	if old != state && old != 0 {
		logSLOTransition(s)
	}
	return s
}
