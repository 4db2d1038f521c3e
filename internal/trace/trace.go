// Package trace is a zero-dependency, allocation-conscious request
// tracer. Each RPC that the protocol server decides to trace gets a
// *Trace; the layers it flows through record named spans (monotonic
// start offset + duration + a few key=value attributes) into a
// fixed-size array owned by the trace. Completed traces land in a
// lock-free ring buffer (see ring.go) that /debug/traces reads.
//
// The design constraints, in order:
//
//  1. Zero cost when off. All recording entry points are nil-safe:
//     a nil *Trace (sampling off, or this request not sampled) makes
//     StartSpan/End/RecordSpan/Finish no-ops. The one trap is Go's
//     variadic calling convention — End(attrs...) materializes the
//     argument slice at the call site before the receiver is even
//     looked at — so call sites that pass attributes must sit behind
//     an explicit `if tr != nil` guard to keep the hot path
//     allocation-free.
//  2. No per-span allocation when on. Spans live in a fixed-capacity
//     slice inside the pooled Trace; attributes live in a fixed [8]
//     array inside each Span. Spans past the capacity are counted and
//     dropped, never grown.
//  3. Published traces are immutable. Once a trace reaches the ring it
//     is never written again and never returned to the pool, so a
//     concurrent /debug/traces scrape can never observe a torn span.
//     Only traces that lose the sampling decision are recycled.
package trace

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans recorded per trace. The full pipeline
// taxonomy (decode, cloak, query, cache_lookup, query_filter,
// query_range, wal_append, store, encode) is well under this.
const maxSpans = 16

// maxAttrs bounds the attributes per span; extras are dropped. The
// widest span today is cloak (backend, mechanism, level, k_found,
// steps_up, k_req, area_m2, epsilon_micro).
const maxAttrs = 8

// MaxIDLen bounds client-supplied trace IDs; longer IDs are truncated
// so a hostile client cannot make the ring retain, or a response echo,
// arbitrary payloads.
const MaxIDLen = 64

// ClampID truncates a client-supplied trace ID to MaxIDLen bytes.
func ClampID(id string) string {
	if len(id) > MaxIDLen {
		return id[:MaxIDLen]
	}
	return id
}

// Attr is one key=value span attribute. It holds either a string or
// an int64 without boxing, so building one never allocates.
type Attr struct {
	Key   string
	Str   string
	Num   int64
	IsNum bool
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Num: v, IsNum: true} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v} }

// Value returns the attribute value as an any (for JSON export).
func (a Attr) Value() any {
	if a.IsNum {
		return a.Num
	}
	return a.Str
}

// Span is one timed pipeline stage. StartNS is the offset from the
// trace anchor (the protocol decode start), so a waterfall renders
// directly from (StartNS, DurNS) pairs.
type Span struct {
	Name    string
	StartNS int64
	DurNS   int64
	attrs   [maxAttrs]Attr
	nattrs  int8
}

// Attrs returns the recorded attributes (aliasing the span's storage).
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// Trace is the record of one RPC. It is owned by a single request
// goroutine until Finish; after Publish it is immutable.
type Trace struct {
	ID      string
	Op      string
	Started time.Time
	TotalNS int64
	Err     string
	Code    string
	Slow    bool
	// Dropped counts spans discarded because the trace was full.
	Dropped int

	// start anchors span offsets; it equals Started but keeps the
	// monotonic reading for duration math.
	start time.Time
	spans []Span
}

// Spans returns the recorded spans (aliasing the trace's storage).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

var tracePool = sync.Pool{
	New: func() any { return &Trace{spans: make([]Span, 0, maxSpans)} },
}

// New starts a trace anchored at time.Now. id may be empty (one is
// generated) or a client-supplied correlation ID (truncated to
// MaxIDLen).
func New(op, id string) *Trace { return NewAt(op, id, time.Now()) }

// NewAt starts a trace anchored at started, which becomes offset 0
// for every span — pass the moment the request frame began decoding
// so retroactively recorded decode spans start at 0.
func NewAt(op, id string, started time.Time) *Trace {
	t := tracePool.Get().(*Trace)
	if id == "" {
		id = genID()
	} else {
		id = ClampID(id)
	}
	t.ID, t.Op = id, op
	t.Started, t.start = started, started
	t.TotalNS, t.Err, t.Code, t.Slow, t.Dropped = 0, "", "", false, 0
	t.spans = t.spans[:0]
	return t
}

// SpanRef names an in-flight span. The zero SpanRef (and any SpanRef
// from a nil trace or a full trace) is valid and End on it is a no-op.
type SpanRef struct {
	t *Trace
	i int32
}

// StartSpan opens a span at the current time. Safe on a nil trace.
func (t *Trace) StartSpan(name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if len(t.spans) >= maxSpans {
		t.Dropped++
		return SpanRef{}
	}
	i := len(t.spans)
	t.spans = t.spans[:i+1]
	sp := &t.spans[i]
	sp.Name = name
	sp.StartNS = int64(time.Since(t.start))
	sp.DurNS = 0
	sp.nattrs = 0
	return SpanRef{t: t, i: int32(i)}
}

// End closes the span, recording its duration and any attributes.
// Safe on the zero SpanRef — but note that passing attributes
// allocates the variadic slice at the call site regardless, so guard
// attr-passing calls with a nil check on the trace.
func (s SpanRef) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.i]
	sp.DurNS = int64(time.Since(s.t.start)) - sp.StartNS
	for _, a := range attrs {
		if int(sp.nattrs) < maxAttrs {
			sp.attrs[sp.nattrs] = a
			sp.nattrs++
		}
	}
}

// RecordSpan records a span retroactively from an explicit start time
// and duration — for stages that were timed before the trace existed
// (protocol decode) or that are modeled rather than measured
// (candidate-list transmission). Safe on a nil trace; the same
// variadic caveat as End applies.
func (t *Trace) RecordSpan(name string, start time.Time, dur time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	if len(t.spans) >= maxSpans {
		t.Dropped++
		return
	}
	i := len(t.spans)
	t.spans = t.spans[:i+1]
	sp := &t.spans[i]
	sp.Name = name
	sp.StartNS = int64(start.Sub(t.start))
	sp.DurNS = int64(dur)
	sp.nattrs = 0
	for _, a := range attrs {
		if int(sp.nattrs) < maxAttrs {
			sp.attrs[sp.nattrs] = a
			sp.nattrs++
		}
	}
}

// Finish stamps the end-to-end outcome. Safe on a nil trace. The
// caller then decides: Publish (retain in the ring) or Recycle (drop
// and return to the pool).
func (t *Trace) Finish(total time.Duration, errMsg, code string, slow bool) {
	if t == nil {
		return
	}
	t.TotalNS = int64(total)
	t.Err, t.Code, t.Slow = errMsg, code, slow
}

// Recycle returns a trace that lost the sampling decision to the
// pool. Never call it on a published trace — the ring's readers hold
// references indefinitely.
func Recycle(t *Trace) {
	if t == nil {
		return
	}
	t.ID, t.Op, t.Err, t.Code = "", "", "", ""
	t.spans = t.spans[:0]
	tracePool.Put(t)
}

// Sampling state. Tracing defaults to on with 1-in-16 head sampling;
// slow and errored requests are always retained regardless (that
// decision lives with the caller, which knows the outcome).
var (
	enabled     atomic.Bool
	sampleEvery atomic.Int64
	sampleSeq   atomic.Uint64
)

func init() {
	enabled.Store(true)
	sampleEvery.Store(16)
}

// Enabled reports whether requests should be traced at all. This is
// the single cheap check the hot path makes before touching anything
// else in this package.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns tracing on or off globally.
func SetEnabled(v bool) { enabled.Store(v) }

// SampleEvery returns the head-sampling modulus N (trace 1 in N).
func SampleEvery() int64 { return sampleEvery.Load() }

// SetSampleEvery sets head sampling to 1-in-n. n <= 0 disables head
// sampling entirely — only slow and errored requests are retained.
func SetSampleEvery(n int64) { sampleEvery.Store(n) }

// HeadSample draws the head-sampling decision for one request.
func HeadSample() bool {
	n := sampleEvery.Load()
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	return sampleSeq.Add(1)%uint64(n) == 1
}

// ID generation: a process-random base mixed with an atomic counter
// through splitmix64. Unique within a process run, unguessable enough
// for correlation, and allocation-free except for the hex rendering.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

func genID() string {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return fmt.Sprintf("%016x", x)
}

// JSON export shapes for /debug/traces.

// AttrJSON is one exported attribute.
type AttrJSON struct {
	K string `json:"k"`
	V any    `json:"v"`
}

// SpanJSON is one exported span.
type SpanJSON struct {
	Name    string     `json:"name"`
	StartNS int64      `json:"start_ns"`
	DurNS   int64      `json:"dur_ns"`
	Attrs   []AttrJSON `json:"attrs,omitempty"`
}

// TraceJSON is one exported trace. The list view omits Spans; the
// ?id= detail view includes them.
type TraceJSON struct {
	ID       string     `json:"trace_id"`
	Op       string     `json:"op"`
	Started  time.Time  `json:"started"`
	TotalNS  int64      `json:"total_ns"`
	Err      string     `json:"error,omitempty"`
	Code     string     `json:"code,omitempty"`
	Slow     bool       `json:"slow"`
	NumSpans int        `json:"num_spans"`
	Dropped  int        `json:"dropped_spans,omitempty"`
	Spans    []SpanJSON `json:"spans,omitempty"`
}

// Export renders the trace for JSON serving. Only call it on
// published (immutable) traces.
func (t *Trace) Export(withSpans bool) TraceJSON {
	out := TraceJSON{
		ID: t.ID, Op: t.Op, Started: t.Started,
		TotalNS: t.TotalNS, Err: t.Err, Code: t.Code, Slow: t.Slow,
		NumSpans: len(t.spans), Dropped: t.Dropped,
	}
	if withSpans {
		out.Spans = make([]SpanJSON, len(t.spans))
		for i := range t.spans {
			sp := &t.spans[i]
			sj := SpanJSON{Name: sp.Name, StartNS: sp.StartNS, DurNS: sp.DurNS}
			if sp.nattrs > 0 {
				sj.Attrs = make([]AttrJSON, sp.nattrs)
				for j, a := range sp.Attrs() {
					sj.Attrs[j] = AttrJSON{K: a.Key, V: a.Value()}
				}
			}
			out.Spans[i] = sj
		}
	}
	return out
}
