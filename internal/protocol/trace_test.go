package protocol

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/server"
	"casper/internal/trace"
)

func TestTraceIDClientChosenRoundTrip(t *testing.T) {
	addr := startServer(t)
	cl, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.SetNextTraceID("client-chosen-42")
	if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := cl.LastTraceID(); got != "client-chosen-42" {
		t.Fatalf("LastTraceID = %q, want the client-chosen id echoed", got)
	}

	// The id is one-shot: the next request gets a server-generated one.
	if err := cl.Update(ctx, 1, 110, 110); err != nil {
		t.Fatal(err)
	}
	got := cl.LastTraceID()
	if got == "" || got == "client-chosen-42" {
		t.Fatalf("LastTraceID after one-shot = %q, want a fresh server-generated id", got)
	}
	if len(got) != 16 {
		t.Fatalf("server-generated id %q, want 16 hex chars", got)
	}
}

func TestTraceIDOversizeTruncated(t *testing.T) {
	addr := startServer(t)
	cl, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	long := strings.Repeat("x", 200)
	cl.SetNextTraceID(long)
	if err := cl.Register(ctx, 2, 200, 200, 1, 0); err != nil {
		t.Fatal(err)
	}
	got := cl.LastTraceID()
	if got != long[:64] {
		t.Fatalf("LastTraceID = %q (len %d), want the id truncated to 64 bytes", got, len(got))
	}
}

// TestSlowRequestTraceRetained drives a query through a server whose
// slow-query threshold catches everything, then pulls the request's
// trace out of the global ring by the id the response carried — the
// end-to-end debugging flow /debug/traces serves — and checks the
// pipeline recorded a meaningful span breakdown.
func TestSlowRequestTraceRetained(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Universe = geom.R(0, 0, 4096, 4096)
	cfg.PyramidLevels = 7
	c := core.MustNew(cfg)
	rng := rand.New(rand.NewSource(1))
	objs := make([]server.PublicObject, 200)
	for i := range objs {
		objs[i] = server.PublicObject{ID: int64(i), Pos: geom.Pt(rng.Float64()*4096, rng.Float64()*4096)}
	}
	c.LoadPublicObjects(objs)

	srv := NewServer(c)
	srv.SetLogger(quietLogger()) // slow-query warnings are expected noise here
	srv.SlowQueryThreshold = time.Nanosecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cl, err := DialContext(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Register(ctx, 7, 500, 500, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NearestPublic(ctx, 7); err != nil {
		t.Fatal(err)
	}
	id := cl.LastTraceID()
	if id == "" {
		t.Fatal("no trace id on the query response")
	}

	// The server publishes the trace after writing the response, so the
	// client can observe the response a beat before the ring does.
	var tr *trace.Trace
	deadline := time.Now().Add(2 * time.Second)
	for tr == nil && time.Now().Before(deadline) {
		tr = trace.Default.Find(id)
		if tr == nil {
			time.Sleep(time.Millisecond)
		}
	}
	if tr == nil {
		t.Fatalf("trace %s not retained in the ring despite being slow", id)
	}
	if !tr.Slow {
		t.Error("trace not flagged slow")
	}
	if tr.Op != OpNearestPublic {
		t.Errorf("trace op = %q, want %q", tr.Op, OpNearestPublic)
	}
	names := make(map[string]bool)
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"decode", "cloak", "query", "query_filter", "query_range", "encode"} {
		if !names[want] {
			t.Errorf("trace missing %q span; recorded: %v", want, keys(names))
		}
	}
	if len(names) < 5 {
		t.Errorf("trace has %d distinct spans, want >= 5: %v", len(names), keys(names))
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
