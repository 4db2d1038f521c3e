// Package privacyobs is the live privacy-observability plane: the
// runtime mirror of the offline privacy analyses in internal/privacy
// and casper-bench -compare. Where those measure achieved privacy on a
// recorded workload after the fact, this package watches every cloak
// the anonymizer actually releases and keeps the same quantities
// continuously current on a running server:
//
//   - per-backend achieved-k and cloak-area distributions, with
//     k-violation accounting (a release whose population fell short of
//     the user's requested k — possible only transiently, when users
//     deregister between the count and the release);
//   - a windowed anonymity-set entropy estimate over the most recent
//     releases (the online analogue of privacy.AnalyzeEntropy: the
//     anonymity set of a k-anonymous release is its KFound population,
//     so each release contributes log2(KFound) bits);
//   - an online repeat-query linkage estimator: per user, the running
//     intersection of consecutive released regions, scoring how much
//     of the first region an overlap attacker still retains (the live
//     analogue of privacy.RunOverlapAttack's surviving fraction — the
//     0.23 headline in results_csv/backends_quick.csv);
//   - per-user ε-budget accounts for perturbed-mechanism backends
//     (geoind): cumulative spend, and an optional ceiling that makes
//     the framework refuse further releases for an exhausted user;
//   - privacy-SLO thresholds (minimum k-satisfied fraction, maximum
//     linkage) evaluated on every scrape, driving the
//     casper_privacy_slo_ok gauge and slog alerts on transitions.
//
// Like internal/metrics and internal/trace, the package is
// zero-dependency and built for the hot path: observing one release is
// one short critical section under the observer's mutex — a few field
// updates, one ring store and one map update, with no allocation for a
// user the observer has seen before. Every aggregate is a running
// total, so a Snapshot (the one reader) holds the lock for O(backends +
// ringSize), never for a walk over the tracked users. State lives in the
// process-global Default observer (the cloak path feeds it
// unconditionally); New exists for tests.
package privacyobs

import (
	"log/slog"
	"math"
	"sync"

	"casper/internal/anonymizer"
	"casper/internal/geom"
)

// Default is the process-global observer the framework's cloak path
// feeds. The casper_privacy_* gauges and /debug/privacy read it.
var Default = New()

// ringSize bounds the entropy window: the estimate covers the last
// ringSize k-anonymous releases.
const ringSize = 1024

// linkWindow re-anchors a user's linkage estimate after this many
// releases, so the surviving fraction measures the recent window
// rather than the whole session (an attacker correlating a bounded
// history).
const linkWindow = 64

// maxTracked bounds linkage-estimator memory: beyond this many
// distinct users, new users are counted but not tracked (the estimator
// becomes a fixed-size sample of the population, which is what an
// aggregate needs anyway).
const maxTracked = 65536

// linkEntry is one user's online overlap-attack state: the running
// intersection cur of the releases since the last reset or re-anchor,
// and the base region that window started from. Mirrors
// privacy.RunOverlapAttack's loop, applied incrementally.
type linkEntry struct {
	cur, base geom.Rect
	obs       int // releases since the last re-anchor
}

// survival is the user's contribution to the linkage estimate: the
// fraction of the window's base region the attacker still retains, and
// false while the window holds a single release (nothing to link).
func (e *linkEntry) survival() (float64, bool) {
	if e.obs == 0 {
		return 0, false
	}
	a := e.base.Area()
	if a <= 0 {
		return 0, false
	}
	return e.cur.Area() / a, true
}

// backendStats is one backend's release accounting. The distribution
// histograms live in the shared metrics registry (see metrics.go); the
// running totals here back Snapshot and the SLO evaluation.
type backendStats struct {
	inst       *privacyInstruments
	releases   int64   // all releases
	regionRel  int64   // region-mechanism releases (k applies)
	violations int64   // region releases with KFound < KRequested
	kSum       int64   // sum of KFound over region releases
	areaSum    float64 // sum of released areas
}

// Observer accumulates live privacy telemetry. The zero value is not
// usable; call New. One mutex guards every field.
type Observer struct {
	mu       sync.Mutex
	backends map[string]*backendStats

	// Entropy ring: log2(KFound) of the last ringSize region releases;
	// ringPos counts every region release ever written.
	ring    [ringSize]float64
	ringPos uint64

	linkage    map[int64]*linkEntry
	linkSum    float64 // sum of survival over entries with evidence
	linkN      int     // entries with evidence
	linkResets int64   // empty-intersection resets (lifetime)
	untracked  int64   // users the linkage estimator had no room for

	spent          map[int64]float64 // per-user cumulative ε
	budgetCeiling  float64           // 0 = no ceiling
	budgetRefusals int64
	budgetSpendSum float64
	budgetSpendMax float64

	// SLO thresholds; 0 = that dimension disabled.
	sloMinKFrac   float64
	sloMaxLinkage float64
	sloState      int32 // 0 unevaluated, 1 ok, 2 violated
}

// New builds an empty observer. Production code uses Default; New is
// for tests that need isolated state. All observers share the metric
// instruments (the registry is process-global), so tests should assert
// on Snapshot, not on /metrics families.
func New() *Observer {
	return &Observer{
		backends: make(map[string]*backendStats),
		linkage:  make(map[int64]*linkEntry),
		spent:    make(map[int64]float64),
	}
}

// ObserveCloak records one released cloak. uid keys the linkage and
// budget accounts; it never leaves the trusted anonymizer process (the
// observer lives on the same side of the trust boundary as the
// anonymizer itself). The existing-user path performs no allocation.
func (o *Observer) ObserveCloak(backendName string, uid int64, cr anonymizer.CloakedRegion) {
	area := cr.Region.Area()
	region := cr.Mechanism == anonymizer.MechRegion
	violation := region && cr.KRequested > 0 && cr.KFound < cr.KRequested
	// Entropy window: the anonymity set of a k-anonymous release is its
	// population, worth log2(KFound) bits (0 when the user is alone —
	// the degenerate case AnalyzeEntropy flags).
	bits := 0.0
	if cr.KFound > 1 {
		bits = math.Log2(float64(cr.KFound))
	}

	o.mu.Lock()
	bs := o.backends[backendName]
	if bs == nil {
		bs = &backendStats{inst: instrumentsFor(backendName)}
		o.backends[backendName] = bs
	}
	bs.releases++
	bs.areaSum += area
	if region {
		bs.regionRel++
		bs.kSum += int64(cr.KFound)
		if violation {
			bs.violations++
		}
		o.ring[o.ringPos%ringSize] = bits
		o.ringPos++
	}
	reset := o.observeLinkage(uid, cr.Region)
	if cr.Epsilon > 0 {
		o.spend(uid, cr.Epsilon)
	}
	inst := bs.inst
	o.mu.Unlock()

	inst.releases.Inc()
	inst.area.Observe(area)
	if region {
		inst.kFound.Observe(float64(cr.KFound))
		if violation {
			inst.kViolations.Inc()
		}
	}
	if reset {
		linkResets.Inc()
	}
}

// observeLinkage advances the user's online overlap attack with a new
// released region, mirroring privacy.RunOverlapAttack incrementally:
// intersect while the regions overlap, reset when they stop. It moves
// the user's survival fraction in the running linkage sum and reports
// whether the user's window reset. Caller holds o.mu.
func (o *Observer) observeLinkage(uid int64, region geom.Rect) bool {
	e := o.linkage[uid]
	if e == nil {
		if len(o.linkage) >= maxTracked {
			o.untracked++
		} else {
			o.linkage[uid] = &linkEntry{cur: region, base: region}
		}
		return false
	}
	if f, ok := e.survival(); ok {
		o.linkSum -= f
		o.linkN--
	}
	reset := false
	if in, ok := e.cur.Intersect(region); ok && in.Area() > 0 {
		e.cur = in
		e.obs++
		if e.obs >= linkWindow {
			// Re-anchor: keep measuring the recent window, not the
			// whole session. cur is already ⊆ region, so it carries
			// over as the new window's running intersection.
			e.base, e.obs = region, 0
		}
	} else {
		o.linkResets++
		e.cur, e.base, e.obs = region, region, 0
		reset = true
	}
	if f, ok := e.survival(); ok {
		o.linkSum += f
		o.linkN++
	}
	return reset
}

// spend adds one release's ε to the user's account. Caller holds o.mu.
func (o *Observer) spend(uid int64, eps float64) {
	total := o.spent[uid] + eps
	o.spent[uid] = total
	o.budgetSpendSum += eps
	o.budgetSpendMax = max(o.budgetSpendMax, total)
}

// Spent returns a user's cumulative ε spend.
func (o *Observer) Spent(uid int64) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spent[uid]
}

// SetEpsilonBudget installs (or, with 0, removes) the per-user ε
// ceiling. Hot-reloadable; the next cloak sees the new value.
func (o *Observer) SetEpsilonBudget(budget float64) {
	if !(budget > 0) || math.IsInf(budget, 0) {
		budget = 0
	}
	o.mu.Lock()
	o.budgetCeiling = budget
	o.mu.Unlock()
}

// EpsilonBudget returns the active ceiling (0 = none).
func (o *Observer) EpsilonBudget() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.budgetCeiling
}

// BudgetExhausted reports whether a ceiling is set and the user's
// cumulative spend has reached it. The check runs before the release,
// so a user's final release may carry the spend past the ceiling by
// at most one ε_u; after that, every further cloak is refused. The
// true branch also counts the refusal.
func (o *Observer) BudgetExhausted(uid int64) bool {
	o.mu.Lock()
	exhausted := o.budgetCeiling > 0 && o.spent[uid] >= o.budgetCeiling
	if exhausted {
		o.budgetRefusals++
	}
	o.mu.Unlock()
	if exhausted {
		budgetExhausted.Inc()
	}
	return exhausted
}

// SetSLOThresholds installs the privacy-SLO thresholds: the minimum
// fraction of region releases that must satisfy their requested k, and
// the maximum tolerated linkage estimate. Zero (or non-finite, or
// out-of-range) disables that dimension. Hot-reloadable.
func (o *Observer) SetSLOThresholds(minKFrac, maxLinkage float64) {
	if !(minKFrac > 0 && minKFrac <= 1) {
		minKFrac = 0
	}
	if !(maxLinkage > 0 && maxLinkage <= 1) {
		maxLinkage = 0
	}
	o.mu.Lock()
	o.sloMinKFrac, o.sloMaxLinkage = minKFrac, maxLinkage
	o.mu.Unlock()
}

// logSLOTransition logs a change of the SLO verdict: a warning on
// ok→violated, info on recovery. Snapshot calls it after unlocking.
func logSLOTransition(s Snapshot) {
	args := []any{
		"k_satisfied_fraction", s.KSatisfiedFraction, "min_k_satisfied", s.SLO.MinKSatisfied,
		"linkage", s.Linkage.Estimate, "max_linkage", s.SLO.MaxLinkage,
	}
	if s.SLO.OK {
		slog.Info("privacy SLO recovered", args...)
	} else {
		slog.Warn("privacy SLO violated", args...)
	}
}
