package server

import (
	"time"

	"casper/internal/metrics"
)

// Query-processor and persistence instrumentation. Query metrics are
// split by query type; WAL metrics count appends, bytes, syncs, and
// compactions so log health (growth vs. compaction) is visible on a
// live deployment.
var (
	querySeconds = metrics.Default.HistogramVec(
		"casper_query_seconds", "query",
		"Privacy-aware query processor latency by query type.",
		metrics.TimeBuckets())
	queryCandidates = metrics.Default.HistogramVec(
		"casper_query_candidates", "query",
		"Candidate-list length returned by the query processor.",
		metrics.CountBuckets())
	queryErrors = metrics.Default.CounterVec(
		"casper_query_errors_total", "query",
		"Queries the processor rejected or failed.")

	cacheHits = metrics.Default.Counter(
		"casper_query_cache_hits_total", "",
		"Public-table candidate-cache hits.")
	cacheMisses = metrics.Default.Counter(
		"casper_query_cache_misses_total", "",
		"Public-table candidate-cache misses (each one computes the candidate list).")

	snapshotPublishes = metrics.Default.Counter(
		"casper_snapshot_publishes_total", "",
		"Index snapshots published by the write path (one per mutation batch).")

	walAppends = metrics.Default.Counter(
		"casper_wal_appends_total", "",
		"Records appended to the write-ahead log.")
	walAppendBytes = metrics.Default.Counter(
		"casper_wal_append_bytes_total", "",
		"Bytes appended to the write-ahead log (headers included).")
	walAppendErrors = metrics.Default.Counter(
		"casper_wal_append_errors_total", "",
		"WAL appends that failed.")
	walSyncs = metrics.Default.Counter(
		"casper_wal_syncs_total", "",
		"WAL fsyncs issued.")
	walSyncSeconds = metrics.Default.Histogram(
		"casper_wal_sync_seconds", "",
		"WAL fsync latency.",
		metrics.TimeBuckets())
	walCompactions = metrics.Default.Counter(
		"casper_wal_compactions_total", "",
		"Successful WAL compactions.")
	walCompactErrors = metrics.Default.Counter(
		"casper_wal_compact_errors_total", "",
		"WAL compactions that failed (the previous log stays live).")
	walCompactSeconds = metrics.Default.Histogram(
		"casper_wal_compact_seconds", "",
		"WAL compaction latency (snapshot write + rename + reopen).",
		metrics.TimeBuckets())
)

// queryInstruments bundles the per-type instruments, resolved once.
type queryInstruments struct {
	seconds    *metrics.Histogram
	candidates *metrics.Histogram
	errors     *metrics.Counter
}

func newQueryInstruments(kind string) queryInstruments {
	return queryInstruments{
		seconds:    querySeconds.With(kind),
		candidates: queryCandidates.With(kind),
		errors:     queryErrors.With(kind),
	}
}

var (
	qiNNPublic  = newQueryInstruments("nn_public")
	qiNNPrivate = newQueryInstruments("nn_private")
	qiKNNPublic = newQueryInstruments("knn_public")
	qiRange     = newQueryInstruments("range_public")
)

// observe records one query processor outcome.
func (qi queryInstruments) observe(start time.Time, candidates int, err error) {
	if err != nil {
		qi.errors.Inc()
		return
	}
	qi.seconds.Observe(time.Since(start).Seconds())
	qi.candidates.Observe(float64(candidates))
}

// registerServerGauges exposes a server instance's live table sizes
// and cache hit rate at scrape time. When several servers exist in one
// process (tests), the most recently built one wins — the callbacks
// read live state, so they always reflect a real instance.
func registerServerGauges(s *Server) {
	metrics.Default.GaugeFunc("casper_public_objects", "",
		"Public objects currently stored.",
		func() float64 { return float64(s.PublicCount()) })
	metrics.Default.GaugeFunc("casper_private_objects", "",
		"Cloaked private objects currently stored.",
		func() float64 { return float64(s.PrivateCount()) })
	metrics.Default.GaugeFunc("casper_query_cache_hit_rate", "",
		"Lifetime hit rate of the public-query candidate cache.",
		func() float64 {
			hits, misses := s.CacheStats()
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		})
	metrics.Default.GaugeFunc("casper_snapshot_age_seconds", "",
		"Seconds since the current index snapshot was published.",
		func() float64 { return time.Since(s.snap.Load().published).Seconds() })
}
