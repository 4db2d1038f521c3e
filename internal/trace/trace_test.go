package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	sp.End()
	sp.End(Int("k", 1))
	tr.RecordSpan("y", time.Now(), time.Millisecond)
	tr.Finish(time.Second, "", "", false)
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace Spans() = %v, want nil", got)
	}
}

func TestSpanRecording(t *testing.T) {
	start := time.Now()
	tr := NewAt("nearest", "", start)
	if tr.ID == "" || len(tr.ID) != 16 {
		t.Fatalf("generated ID %q, want 16 hex chars", tr.ID)
	}
	tr.RecordSpan("decode", start, 5*time.Microsecond)
	sp := tr.StartSpan("cloak")
	sp.End(Int("level", 3), Str("kind", "basic"))
	tr.Finish(time.Millisecond, "", "", true)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "decode" || spans[0].StartNS != 0 {
		t.Fatalf("decode span = %+v, want StartNS 0", spans[0])
	}
	if spans[0].DurNS != int64(5*time.Microsecond) {
		t.Fatalf("decode DurNS = %d", spans[0].DurNS)
	}
	attrs := spans[1].Attrs()
	if len(attrs) != 2 || attrs[0].Key != "level" || attrs[0].Num != 3 || attrs[1].Str != "basic" {
		t.Fatalf("cloak attrs = %+v", attrs)
	}
	if !tr.Slow || tr.TotalNS != int64(time.Millisecond) {
		t.Fatalf("Finish not recorded: %+v", tr)
	}
}

func TestClientIDTruncatedAndEchoed(t *testing.T) {
	long := make([]byte, 200)
	for i := range long {
		long[i] = 'a'
	}
	tr := New("op", string(long))
	if len(tr.ID) != MaxIDLen {
		t.Fatalf("ID length %d, want %d", len(tr.ID), MaxIDLen)
	}
	tr2 := New("op", "client-chosen")
	if tr2.ID != "client-chosen" {
		t.Fatalf("client ID not kept: %q", tr2.ID)
	}
}

func TestSpanOverflowDropped(t *testing.T) {
	tr := New("op", "")
	for i := 0; i < maxSpans+5; i++ {
		tr.StartSpan("s").End()
	}
	if len(tr.Spans()) != maxSpans {
		t.Fatalf("got %d spans, want %d", len(tr.Spans()), maxSpans)
	}
	if tr.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", tr.Dropped)
	}
	// Attr overflow: extras silently dropped.
	tr2 := New("op", "")
	sp := tr2.StartSpan("s")
	sp.End(Int("a", 1), Int("b", 2), Int("c", 3), Int("d", 4), Int("e", 5),
		Int("f", 6), Int("g", 7), Int("h", 8), Int("i", 9))
	if n := len(tr2.Spans()[0].Attrs()); n != maxAttrs {
		t.Fatalf("got %d attrs, want %d", n, maxAttrs)
	}
}

func TestRingOverwriteAndFind(t *testing.T) {
	r := NewRing(4)
	base := time.Now()
	for i := 0; i < 7; i++ {
		tr := NewAt("op", fmt.Sprintf("id-%d", i), base.Add(time.Duration(i)*time.Millisecond))
		r.Put(tr)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	// Newest first; oldest retained is id-3.
	if snap[0].ID != "id-6" || snap[3].ID != "id-3" {
		t.Fatalf("snapshot order: %s .. %s", snap[0].ID, snap[3].ID)
	}
	if r.Find("id-0") != nil {
		t.Fatal("overwritten trace still findable")
	}
	if got := r.Find("id-5"); got == nil || got.ID != "id-5" {
		t.Fatalf("Find(id-5) = %v", got)
	}
}

func TestHeadSampling(t *testing.T) {
	oldN := SampleEvery()
	defer SetSampleEvery(oldN)

	SetSampleEvery(1)
	for i := 0; i < 10; i++ {
		if !HeadSample() {
			t.Fatal("SampleEvery(1) must sample everything")
		}
	}
	SetSampleEvery(0)
	for i := 0; i < 10; i++ {
		if HeadSample() {
			t.Fatal("SampleEvery(0) must sample nothing")
		}
	}
	SetSampleEvery(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if HeadSample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampling hit %d/400", hits)
	}
}

func TestExportJSON(t *testing.T) {
	tr := New("range", "abc")
	sp := tr.StartSpan("query_range")
	sp.End(Int("candidates", 12))
	tr.Finish(3*time.Millisecond, "boom", "internal", false)

	detail := tr.Export(true)
	if detail.ID != "abc" || detail.NumSpans != 1 || len(detail.Spans) != 1 {
		t.Fatalf("detail export: %+v", detail)
	}
	list := tr.Export(false)
	if list.Spans != nil || list.NumSpans != 1 {
		t.Fatalf("list export: %+v", list)
	}
	raw, err := json.Marshal(detail)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back["trace_id"] != "abc" || back["error"] != "boom" {
		t.Fatalf("round trip: %v", back)
	}
}

func TestConcurrentPublishAndSnapshot(t *testing.T) {
	r := NewRing(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := New("op", "")
				sp := tr.StartSpan("cloak")
				sp.End()
				tr.Finish(time.Microsecond, "", "", false)
				r.Put(tr)
			}
		}(w)
	}
	deadline := time.After(100 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			for _, tr := range r.Snapshot() {
				// Every visible trace must be complete: torn spans
				// would show as a span with a zero name.
				for _, sp := range tr.Spans() {
					if sp.Name == "" {
						t.Error("torn span observed")
					}
				}
				_ = tr.Export(true)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRecycleReuse(t *testing.T) {
	tr := New("op", "")
	tr.StartSpan("s").End()
	Recycle(tr)
	tr2 := New("op2", "fresh")
	if len(tr2.Spans()) != 0 {
		t.Fatalf("recycled trace kept %d spans", len(tr2.Spans()))
	}
}

// BenchmarkSpanRecord measures the per-span cost on a live trace —
// the price each instrumented stage pays when a request is traced.
func BenchmarkSpanRecord(b *testing.B) {
	tr := New("bench", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.spans = tr.spans[:0] // reuse the trace; measure span cost only
		sp := tr.StartSpan("query")
		sp.End(Int("candidates", 3))
	}
	Recycle(tr)
}

// BenchmarkSpanNil measures the disabled path: a nil trace must make
// StartSpan/End free enough to leave in every hot loop.
func BenchmarkSpanNil(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("query")
		sp.End()
	}
}

// BenchmarkTraceLifecycle measures a whole request's trace: acquire,
// a typical span count, finish, publish into the ring.
func BenchmarkTraceLifecycle(b *testing.B) {
	r := NewRing(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New("nn_public", "")
		for _, n := range [...]string{"decode", "cloak", "query", "encode"} {
			sp := tr.StartSpan(n)
			sp.End()
		}
		tr.Finish(time.Microsecond, "", "", false)
		r.Put(tr)
	}
}
