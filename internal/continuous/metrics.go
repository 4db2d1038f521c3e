package continuous

import "casper/internal/metrics"

// Continuous-monitor instrumentation: event delivery, the async
// delivery queue's health, and the per-tick apply cost.
var (
	monEvents = metrics.Default.Counter(
		"casper_monitor_events_total", "",
		"Change events emitted to subscribers.")
	monEventsDropped = metrics.Default.Counter(
		"casper_monitor_events_dropped_total", "",
		"Events dropped because the monitor was already closed.")
	monQueueDepth = metrics.Default.Gauge(
		"casper_monitor_queue_depth", "",
		"Events queued for asynchronous delivery right now.")
	monQueueHighWater = metrics.Default.Gauge(
		"casper_monitor_queue_high_water", "",
		"Highest asynchronous delivery queue depth seen since start; near the buffer size means subscribers are falling behind.")
	monApplySeconds = metrics.Default.Histogram(
		"casper_monitor_apply_seconds", "",
		"Wall time of one monitor apply tick (a private-update batch); the batch runs single-threaded, so this approximates per-tick CPU time.",
		metrics.TimeBuckets())
)

// Standing-query population and maintenance cost, aggregated across
// every live monitor: the per-kind gauges track registrations minus
// deregistrations, and evaluations_total / updates_total is the
// incremental-maintenance ratio `casperctl stats` reports.
var (
	contQueriesRange = metrics.Default.Gauge(
		"casper_continuous_queries", `kind="range"`,
		"Standing continuous queries registered right now, by kind.")
	contQueriesNN = metrics.Default.Gauge(
		"casper_continuous_queries", `kind="nn"`,
		"Standing continuous queries registered right now, by kind.")
	contQueriesRadius = metrics.Default.Gauge(
		"casper_continuous_queries", `kind="radius"`,
		"Standing continuous queries registered right now, by kind.")
	contUpdates = metrics.Default.Counter(
		"casper_continuous_updates_total", "",
		"Location/data updates ingested by the continuous monitor.")
	contEvaluations = metrics.Default.Counter(
		"casper_continuous_evaluations_total", "",
		"Full re-evaluations those updates caused (lower is better).")
	contSafeHits = metrics.Default.Counter(
		"casper_continuous_safe_region_hits_total", "",
		"Cloak updates absorbed by a safe region without re-evaluating.")
)
