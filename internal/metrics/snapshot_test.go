package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// goldenRegistry holds one of every instrument kind, a label that
// needs escaping, a NaN gauge and an unobserved histogram.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("g_requests_total", "", "Requests.").Add(42)
	ops := r.CounterVec("g_errors_total", "op", "Errors by op.")
	ops.With("nn").Add(3)
	ops.With(`we"ird`).Inc()
	r.Gauge("g_inflight", "", "In flight.").Set(-2)
	r.GaugeFunc("g_hit_rate", "", "Hit rate (NaN before traffic).", func() float64 { return math.NaN() })
	r.GaugeFunc("g_ratio", "", "A ratio.", func() float64 { return 0.125 })
	h := r.HistogramVec("g_latency_seconds", "op", "Latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 3} {
		h.With("nn").Observe(v)
	}
	h.With("update")
	r.Histogram("g_empty", "", "Never observed.", CountBuckets()[:3])
	return r
}

// goldenExposition is goldenRegistry's /metrics text. It pins the
// exposition byte for byte, so changes to the typed Snapshot view
// cannot leak into what Prometheus scrapes.
const goldenExposition = `# HELP g_empty Never observed.
# TYPE g_empty histogram
g_empty_bucket{le="1"} 0
g_empty_bucket{le="2"} 0
g_empty_bucket{le="4"} 0
g_empty_bucket{le="+Inf"} 0
g_empty_sum 0
g_empty_count 0
# HELP g_errors_total Errors by op.
# TYPE g_errors_total counter
g_errors_total{op="nn"} 3
g_errors_total{op="we\"ird"} 1
# HELP g_hit_rate Hit rate (NaN before traffic).
# TYPE g_hit_rate gauge
g_hit_rate 0
# HELP g_inflight In flight.
# TYPE g_inflight gauge
g_inflight -2
# HELP g_latency_seconds Latency.
# TYPE g_latency_seconds histogram
g_latency_seconds_bucket{op="nn",le="0.001"} 1
g_latency_seconds_bucket{op="nn",le="0.01"} 3
g_latency_seconds_bucket{op="nn",le="0.1"} 4
g_latency_seconds_bucket{op="nn",le="+Inf"} 5
g_latency_seconds_sum{op="nn"} 3.0545
g_latency_seconds_count{op="nn"} 5
g_latency_seconds_bucket{op="update",le="0.001"} 0
g_latency_seconds_bucket{op="update",le="0.01"} 0
g_latency_seconds_bucket{op="update",le="0.1"} 0
g_latency_seconds_bucket{op="update",le="+Inf"} 0
g_latency_seconds_sum{op="update"} 0
g_latency_seconds_count{op="update"} 0
# HELP g_ratio A ratio.
# TYPE g_ratio gauge
g_ratio 0.125
# HELP g_requests_total Requests.
# TYPE g_requests_total counter
g_requests_total 42
`

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenExposition {
		t.Fatalf("exposition changed:\n%s\nwant:\n%s", got, goldenExposition)
	}
}

func TestSnapshot(t *testing.T) {
	r := goldenRegistry()
	nn := r.HistogramVec("g_latency_seconds", "op", "Latency.", nil).With("nn")
	want := []Family{
		{Name: "g_empty", Help: "Never observed.", Type: "histogram", Series: []Series{{}}},
		{Name: "g_errors_total", Help: "Errors by op.", Type: "counter", Series: []Series{
			{Labels: `op="nn"`, Value: 3}, {Labels: `op="we\"ird"`, Value: 1}}},
		{Name: "g_hit_rate", Help: "Hit rate (NaN before traffic).", Type: "gauge", Series: []Series{{}}},
		{Name: "g_inflight", Help: "In flight.", Type: "gauge", Series: []Series{{Value: -2}}},
		{Name: "g_latency_seconds", Help: "Latency.", Type: "histogram", Series: []Series{
			{Labels: `op="nn"`, Count: 5, Sum: nn.Sum(),
				P50: nn.Quantile(0.50), P95: nn.Quantile(0.95), P99: nn.Quantile(0.99)},
			{Labels: `op="update"`}}},
		{Name: "g_ratio", Help: "A ratio.", Type: "gauge", Series: []Series{{Value: 0.125}}},
		{Name: "g_requests_total", Help: "Requests.", Type: "counter", Series: []Series{{Value: 42}}},
	}
	got := r.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot =\n%+v\nwant\n%+v", got, want)
	}
	// The +Inf observation clamps p99 to the last finite bound.
	if p99 := got[4].Series[0].P99; p99 != 0.1 {
		t.Errorf("p99 = %v, want the top bound 0.1", p99)
	}
	// NaN gauges and empty-histogram quantiles read as 0, so the view
	// always encodes.
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("snapshot does not encode: %v", err)
	}
	var back []Family
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("JSON round trip: err %v\n got %+v", err, back)
	}
}
