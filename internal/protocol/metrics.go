package protocol

import "casper/internal/metrics"

// RPC instrumentation: request counts and latency by op, application
// errors by wire code, and connection churn. Resolved per-op at init
// so the dispatch path pays only atomic adds.
var (
	rpcRequests = metrics.Default.CounterVec(
		"casper_rpc_requests_total", "op",
		"Requests dispatched, by op.")
	rpcSeconds = metrics.Default.HistogramVec(
		"casper_rpc_seconds", "op",
		"End-to-end request handling latency, by op.",
		metrics.TimeBuckets())
	rpcErrors = metrics.Default.CounterVec(
		"casper_rpc_errors_total", "code",
		"Error responses, by stable wire error code.")
	rpcSlow = metrics.Default.Counter(
		"casper_rpc_slow_total", "",
		"Requests slower than the slow-query threshold.")
	rpcMalformed = metrics.Default.Counter(
		"casper_rpc_malformed_total", "",
		"Frames that failed to parse as a request.")
	connsOpen = metrics.Default.Gauge(
		"casper_connections_open", "",
		"Client connections currently being served.")
	connsTotal = metrics.Default.Counter(
		"casper_connections_total", "",
		"Client connections accepted since start.")
	wireBytes = metrics.Default.CounterVec(
		"casper_wire_bytes_total", "dir",
		"Bytes moved on protocol connections, by direction.")
	bytesIn        = wireBytes.With("in")
	bytesOut       = wireBytes.With("out")
	framesInFlight = metrics.Default.Gauge(
		"casper_frames_inflight", "",
		"Request frames dispatched and not yet answered.")
	shedTotal = metrics.Default.CounterVec(
		"casper_shed_total", "reason",
		"Requests shed by admission control with the retryable overloaded code, by reason (rate_limit, inflight).")
	acceptErrors = metrics.Default.Counter(
		"casper_accept_errors_total", "",
		"Transient listener Accept failures survived by the accept loop's backoff.")
	drainingGauge = metrics.Default.Gauge(
		"casper_draining", "",
		"1 while the server is draining (Shutdown in progress), else 0.")
	connsForceClosed = metrics.Default.Counter(
		"casper_connections_force_closed_total", "",
		"Connections force-closed because the drain deadline expired.")
)

// Resolve the known label children eagerly (the bytesIn/bytesOut
// idiom) so these series exist from the first scrape and the metric
// inventory audit sees the families without traffic.
var _ = []*metrics.Counter{
	shedTotal.With(shedReasonRateLimit), shedTotal.With(shedReasonInFlight),
}

// rpcInstruments bundles one op's counter and histogram.
type rpcInstruments struct {
	requests *metrics.Counter
	seconds  *metrics.Histogram
}

// rpcByOp pre-resolves every op in the opcode table; unknown ops fall
// back to the "unknown" entry rather than minting unbounded labels.
var rpcByOp = func() map[string]rpcInstruments {
	m := make(map[string]rpcInstruments)
	for _, op := range append(opByOpcode[:], "unknown") {
		if op == "" {
			continue
		}
		m[op] = rpcInstruments{
			requests: rpcRequests.With(op),
			seconds:  rpcSeconds.With(op),
		}
	}
	return m
}()

// observeRPC records one dispatched request.
func observeRPC(op string, seconds float64, resp Response) {
	ri, ok := rpcByOp[op]
	if !ok {
		ri = rpcByOp["unknown"]
	}
	ri.requests.Inc()
	ri.seconds.Observe(seconds)
	if !resp.OK {
		code := resp.Code
		if code == "" {
			code = "internal"
		}
		rpcErrors.With(code).Inc()
	}
}
