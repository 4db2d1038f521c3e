// Package metrics is the framework's observability substrate: a
// zero-dependency, lock-cheap registry of counters, gauges, and
// fixed-bucket histograms, exposed in the Prometheus text format.
//
// The hot-path cost of an instrument is one or two atomic adds —
// no map lookups, no allocation, no locks — so every layer of the
// serving stack (anonymizer cloaking, query processing, WAL appends,
// RPC dispatch) can record unconditionally. Label-split families
// (CounterVec, HistogramVec) resolve their label once, at wiring
// time, and hand back the same lock-free instruments.
//
// Metrics are process-global by design, like the Prometheus client:
// instruments are registered once under a stable name and shared by
// every Casper/Server instance in the process. Registering a name
// twice returns the existing instrument, so tests that build many
// framework instances aggregate into the same counters instead of
// colliding.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with an atomic counter per
// bucket. Observations record into the first bucket whose upper bound
// is >= the value; values beyond the last bound land in the implicit
// +Inf bucket. Sum is kept in float64 bits under CAS so averages and
// Prometheus' rate(sum)/rate(count) work.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Int64
	inf     atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Linear scan: bucket counts are small (≤ ~30) and the scan is
	// branch-predictable; this beats binary search at these sizes.
	idx := -1
	for i, ub := range h.bounds {
		if v <= ub {
			idx = i
			break
		}
	}
	if idx >= 0 {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the p-quantile (p in [0,1]) by linear
// interpolation inside the bucket where the cumulative count crosses
// p·total. Observations in the +Inf bucket clamp to the last finite
// bound. Returns NaN when empty.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	cum := int64(0)
	for i, ub := range h.bounds {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (ub-lo)*frac
		}
		cum += n
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return math.NaN()
}

// snapshot returns (bucket counts, inf count, total, sum) coherently
// enough for exposition (individual loads are atomic; a concurrent
// observe may show in count but not yet in sum — Prometheus scrapes
// tolerate that).
func (h *Histogram) snapshot() ([]int64, int64, int64, float64) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.inf.Load(), h.count.Load(), h.Sum()
}

// ExpBuckets returns n exponential upper bounds starting at start and
// multiplying by factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linear upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// TimeBuckets is the default latency bucketing: 1µs … ~67s in
// seconds, factor 2 — wide enough for a cloak (µs) and a cold compact
// (ms–s) on one scale.
func TimeBuckets() []float64 { return ExpBuckets(1e-6, 2, 27) }

// CountBuckets is the default bucketing for small cardinalities
// (candidate-list lengths, steps-up): 1 … 16384, factor 2.
func CountBuckets() []float64 { return ExpBuckets(1, 2, 15) }

// metricKind tags a registered family for TYPE exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered instrument: a family name, an optional
// pre-rendered label set, and the instrument itself.
type metric struct {
	family string // name without labels, e.g. casper_rpc_seconds
	labels string // rendered label set, e.g. `op="register"`, or ""
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

func (m *metric) key() string { return m.family + "{" + m.labels + "}" }

// Registry holds registered instruments and renders them. The
// zero-value is not usable; use NewRegistry or the package-level
// Default registry.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// Default is the process-global registry every instrumented package
// registers into; casperd's /metrics endpoint serves it.
var Default = NewRegistry()

// register returns the existing metric under (family, labels) or
// installs m. A kind clash (the same name registered as two different
// instrument types) panics: that is a programming error, and finding
// it at init beats silent misreporting.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[m.key()]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("metrics: %s re-registered as a different kind", m.key()))
		}
		return old
	}
	r.byKey[m.key()] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter registers (or fetches) a counter. labels is a rendered
// Prometheus label set without braces (`op="register"`), or "".
func (r *Registry) Counter(family, labels, help string) *Counter {
	m := r.register(&metric{family: family, labels: labels, help: help,
		kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(family, labels, help string) *Gauge {
	m := r.register(&metric{family: family, labels: labels, help: help,
		kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// GaugeFunc registers a gauge computed at scrape time. Re-registering
// the same name replaces the callback (the latest instance wins),
// which lets each new framework instance expose its own live state.
func (r *Registry) GaugeFunc(family, labels, help string, fn func() float64) {
	m := r.register(&metric{family: family, labels: labels, help: help,
		kind: kindGaugeFunc, fn: fn})
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram registers (or fetches) a histogram with the given upper
// bounds (+Inf is implicit).
func (r *Registry) Histogram(family, labels, help string, buckets []float64) *Histogram {
	m := r.register(&metric{family: family, labels: labels, help: help,
		kind: kindHistogram, hist: newHistogram(buckets)})
	return m.hist
}

// CounterVec is a family of counters split by one label.
type CounterVec struct {
	r        *Registry
	family   string
	label    string
	help     string
	mu       sync.Mutex
	bySuffix map[string]*Counter
}

// CounterVec registers a label-split counter family.
func (r *Registry) CounterVec(family, label, help string) *CounterVec {
	return &CounterVec{r: r, family: family, label: label, help: help,
		bySuffix: make(map[string]*Counter)}
}

// With returns the counter for one label value; resolve once at
// wiring time, not per observation.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.bySuffix[value]; ok {
		return c
	}
	c := v.r.Counter(v.family, v.label+`="`+escapeLabel(value)+`"`, v.help)
	v.bySuffix[value] = c
	return c
}

// HistogramVec is a family of histograms split by one label.
type HistogramVec struct {
	r        *Registry
	family   string
	label    string
	help     string
	buckets  []float64
	mu       sync.Mutex
	bySuffix map[string]*Histogram
}

// HistogramVec registers a label-split histogram family.
func (r *Registry) HistogramVec(family, label, help string, buckets []float64) *HistogramVec {
	return &HistogramVec{r: r, family: family, label: label, help: help,
		buckets: buckets, bySuffix: make(map[string]*Histogram)}
}

// With returns the histogram for one label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.bySuffix[value]; ok {
		return h
	}
	h := v.r.Histogram(v.family, v.label+`="`+escapeLabel(value)+`"`, v.help, v.buckets)
	v.bySuffix[value] = h
	return h
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders every registered instrument in the
// Prometheus text exposition format (version 0.0.4), grouping
// families so HELP/TYPE appear once each.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.sorted() {
		if m.family != lastFamily {
			lastFamily = m.family
			fmt.Fprintf(&b, "# HELP %s %s\n", m.family, m.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, typeName(m.kind))
		}
		switch m.kind {
		case kindCounter:
			writeSample(&b, m.family, m.labels, float64(m.counter.Value()))
		case kindGauge:
			writeSample(&b, m.family, m.labels, float64(m.gauge.Value()))
		case kindGaugeFunc:
			v := m.fn()
			if math.IsNaN(v) {
				// A NaN sample (e.g. a ratio gauge before any traffic,
				// 0/0) breaks strict exposition parsers and poisons rate
				// math downstream; expose the empty ratio as 0 instead.
				v = 0
			}
			writeSample(&b, m.family, m.labels, v)
		case kindHistogram:
			counts, inf, count, sum := m.hist.snapshot()
			cum := int64(0)
			for i, ub := range m.hist.bounds {
				cum += counts[i]
				le := `le="` + formatFloat(ub) + `"`
				writeSample(&b, m.family+"_bucket", joinLabels(m.labels, le), float64(cum))
			}
			writeSample(&b, m.family+"_bucket", joinLabels(m.labels, `le="+Inf"`), float64(cum+inf))
			writeSample(&b, m.family+"_sum", m.labels, sum)
			writeSample(&b, m.family+"_count", m.labels, float64(count))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sorted returns the registered instruments in exposition order:
// by family then label set, keeping families contiguous for the
// HELP/TYPE headers.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	ms := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].labels < ms[j].labels
	})
	return ms
}

// Family is the typed view of one metric family, in the order and
// with the values /metrics exposes, for readers that want numbers
// instead of exposition text (casperd's /debug/stats, casperctl).
type Family struct {
	Name   string   `json:"name"`
	Help   string   `json:"help"`
	Type   string   `json:"type"` // counter | gauge | histogram
	Series []Series `json:"series"`
}

// Series is one label set of a family. Counters and gauges carry
// Value; histograms carry Count, Sum and the Histogram.Quantile
// estimates. Non-finite values (a 0/0 ratio gauge, the quantiles of an
// empty histogram) read as 0, as in WritePrometheus, so the view
// always encodes as JSON.
type Series struct {
	Labels string  `json:"labels,omitempty"` // rendered, e.g. `op="nn"`
	Value  float64 `json:"value,omitempty"`
	Count  int64   `json:"count,omitempty"`
	Sum    float64 `json:"sum,omitempty"`
	P50    float64 `json:"p50,omitempty"`
	P95    float64 `json:"p95,omitempty"`
	P99    float64 `json:"p99,omitempty"`
}

// Snapshot returns every registered family as typed values.
func (r *Registry) Snapshot() []Family {
	var out []Family
	for _, m := range r.sorted() {
		if len(out) == 0 || out[len(out)-1].Name != m.family {
			out = append(out, Family{Name: m.family, Help: m.help, Type: typeName(m.kind)})
		}
		s := Series{Labels: m.labels}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.counter.Value())
		case kindGauge:
			s.Value = float64(m.gauge.Value())
		case kindGaugeFunc:
			s.Value = finite(m.fn())
		case kindHistogram:
			s.Count = m.hist.Count()
			s.Sum = finite(m.hist.Sum())
			s.P50 = finite(m.hist.Quantile(0.50))
			s.P95 = finite(m.hist.Quantile(0.95))
			s.P99 = finite(m.hist.Quantile(0.99))
		}
		f := &out[len(out)-1]
		f.Series = append(f.Series, s)
	}
	return out
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func typeName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{")
		b.WriteString(labels)
		b.WriteString("}")
	}
	b.WriteString(" ")
	b.WriteString(formatFloat(v))
	b.WriteString("\n")
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
