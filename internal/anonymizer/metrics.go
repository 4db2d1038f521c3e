package anonymizer

import (
	"time"

	"casper/internal/metrics"
)

// Cloaking instrumentation, split by backend name: cloaking time and
// widening steps (Algorithm 1 recursion depth for pyramid backends,
// ring expansions for cluster), two of the quantities the paper's
// Sec. 6.1 evaluation plots. Cloaked-region area, the third, is
// recorded per release by privacyobs (casper_privacy_release_area_m2).
var (
	cloakSeconds = metrics.Default.HistogramVec(
		"casper_cloak_seconds", "anonymizer",
		"Time to blur one exact location into a cloaked region, by backend.",
		metrics.TimeBuckets())
	cloakStepsUp = metrics.Default.HistogramVec(
		"casper_cloak_steps_up", "anonymizer",
		"Widening steps the cloaking procedure needed before succeeding, by backend.",
		metrics.LinearBuckets(0, 1, 16))
	cloakErrors = metrics.Default.CounterVec(
		"casper_cloak_errors_total", "anonymizer",
		"Cloak requests that failed (unknown user or unsatisfiable profile), by backend.")
)

// cloakMetrics bundles one backend's instruments, resolved once when
// the backend is built so the cloak hot path pays only atomic adds.
type cloakMetrics struct {
	seconds *metrics.Histogram
	steps   *metrics.Histogram
	errors  *metrics.Counter
}

func newCloakMetrics(kind string) *cloakMetrics {
	return &cloakMetrics{
		seconds: cloakSeconds.With(kind),
		steps:   cloakStepsUp.With(kind),
		errors:  cloakErrors.With(kind),
	}
}

// observe records one cloak outcome.
func (m *cloakMetrics) observe(start time.Time, cr CloakedRegion, err error) {
	if err != nil {
		m.errors.Inc()
		return
	}
	m.seconds.Observe(time.Since(start).Seconds())
	m.steps.Observe(float64(cr.StepsUp))
}
