package privacyobs

import "casper/internal/metrics"

// The casper_privacy_* families. Distribution instruments are split by
// backend (the four built-ins resolve eagerly below; a custom backend
// resolves once on its first release). The aggregate gauges read the
// Default observer's Snapshot at scrape time, which also evaluates the
// SLO, so every /metrics scrape is an SLO check.
var (
	privReleases = metrics.Default.CounterVec(
		"casper_privacy_releases_total", "backend",
		"Cloaked locations released to the query processor, by backend.")
	privKFound = metrics.Default.HistogramVec(
		"casper_privacy_achieved_k", "backend",
		"Achieved anonymity-set size (KFound) of region-mechanism releases, by backend.",
		metrics.CountBuckets())
	privArea = metrics.Default.HistogramVec(
		"casper_privacy_release_area_m2", "backend",
		"Area of released cloaks in squared universe units, by backend.",
		metrics.ExpBuckets(1, 4, 20))
	privKViolations = metrics.Default.CounterVec(
		"casper_privacy_k_violations_total", "backend",
		"Region releases whose achieved k fell short of the user's requested k, by backend.")
	linkResets = metrics.Default.Counter(
		"casper_privacy_linkage_resets_total", "",
		"Linkage-estimator resets: consecutive releases for one user stopped overlapping.")
	budgetExhausted = metrics.Default.Counter(
		"casper_privacy_budget_exhausted_total", "",
		"Cloak requests refused because the user's cumulative epsilon spend reached the budget ceiling.")
)

// privacyInstruments is one backend's resolved distribution handles,
// fetched once so the release hot path pays only atomic adds.
type privacyInstruments struct {
	releases    *metrics.Counter
	kFound      *metrics.Histogram
	area        *metrics.Histogram
	kViolations *metrics.Counter
}

func instrumentsFor(name string) *privacyInstruments {
	return &privacyInstruments{
		releases:    privReleases.With(name),
		kFound:      privKFound.With(name),
		area:        privArea.With(name),
		kViolations: privKViolations.With(name),
	}
}

// Resolve the built-in backends eagerly so their series exist from the
// first scrape, matching internal/anonymizer's cloakMetrics.
var _ = []*privacyInstruments{
	instrumentsFor("basic"), instrumentsFor("adaptive"),
	instrumentsFor("cluster"), instrumentsFor("geoind"),
}

// privacyGauge registers one casper_privacy_* gauge over a field of
// the Default observer's Snapshot.
func privacyGauge(family, help string, field func(Snapshot) float64) {
	metrics.Default.GaugeFunc(family, "", help, func() float64 { return field(Default.Snapshot()) })
}

func init() {
	privacyGauge("casper_privacy_slo_ok",
		"1 when the configured privacy SLO holds (k-satisfied fraction and linkage within thresholds), else 0. Evaluated at scrape time.",
		func(s Snapshot) float64 {
			if s.SLO.OK {
				return 1
			}
			return 0
		})
	privacyGauge("casper_privacy_k_satisfied_fraction",
		"Fraction of region-mechanism releases that met the requested k (1 when none released yet).",
		func(s Snapshot) float64 { return s.KSatisfiedFraction })
	privacyGauge("casper_privacy_linkage",
		"Online overlap-attack surviving fraction, averaged over tracked users with repeat releases (live analogue of the offline RunOverlapAttack number).",
		func(s Snapshot) float64 { return s.Linkage.Estimate })
	privacyGauge("casper_privacy_linkage_tracked_users",
		"Users currently tracked by the online linkage estimator.",
		func(s Snapshot) float64 { return float64(s.Linkage.TrackedUsers) })
	privacyGauge("casper_privacy_entropy_mean_bits",
		"Mean anonymity-set entropy (log2 KFound) over the recent-release window.",
		func(s Snapshot) float64 { return s.Entropy.MeanBits })
	privacyGauge("casper_privacy_entropy_min_bits",
		"Minimum anonymity-set entropy over the recent-release window.",
		func(s Snapshot) float64 { return s.Entropy.MinBits })
	privacyGauge("casper_privacy_epsilon_spent_total",
		"Cumulative epsilon spent across all users by perturbed-mechanism releases.",
		func(s Snapshot) float64 { return s.Epsilon.SpentTotal })
	privacyGauge("casper_privacy_epsilon_max_user",
		"Largest cumulative epsilon spend of any single user.",
		func(s Snapshot) float64 { return s.Epsilon.MaxUser })
	privacyGauge("casper_privacy_epsilon_budget",
		"Configured per-user epsilon budget ceiling (0 = unlimited).",
		func(s Snapshot) float64 { return s.Epsilon.Budget })
}
