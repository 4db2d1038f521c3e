package protocol

import (
	"math/rand"
	"net"
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

	resp, err := cl.Raw(ctx, Request{Op: OpRegister, UserID: 1, X: 100, Y: 100, K: 1, TraceID: "client-chosen-42"})
	if err != nil || !resp.OK {
		t.Fatalf("register: %+v, %v", resp, err)
	}
	if resp.TraceID != "client-chosen-42" {
		t.Fatalf("TraceID = %q, want the client-chosen id echoed", resp.TraceID)
	}

	// A request that carries no id gets a server-generated one.
	resp, err = cl.Raw(ctx, Request{Op: OpUpdate, UserID: 1, X: 110, Y: 110})
	if err != nil || !resp.OK {
		t.Fatalf("update: %+v, %v", resp, err)
	}
	got := resp.TraceID
	if got == "" || got == "client-chosen-42" {
		t.Fatalf("TraceID without a client id = %q, want a fresh server-generated id", got)
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
	resp, err := cl.Raw(ctx, Request{Op: OpRegister, UserID: 2, X: 200, Y: 200, K: 1, TraceID: long})
	if err != nil || !resp.OK {
		t.Fatalf("register: %+v, %v", resp, err)
	}
	if got := resp.TraceID; got != long[:64] {
		t.Fatalf("TraceID = %q (len %d), want the id truncated to 64 bytes", got, len(got))
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
	srv.SetSlowQueryThreshold(time.Nanosecond)
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
	resp, err := cl.Raw(ctx, Request{Op: OpNearestPublic, UserID: 7})
	if err != nil || !resp.OK {
		t.Fatalf("nn_public: %+v, %v", resp, err)
	}
	id := resp.TraceID
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
	for _, want := range []string{"decode", "cloak", "query", "query_filter", "query_range", "encode", "write"} {
		if !names[want] {
			t.Errorf("trace missing %q span; recorded: %v", want, keys(names))
		}
	}
	if len(names) < 5 {
		t.Errorf("trace has %d distinct spans, want >= 5: %v", len(names), keys(names))
	}
}

// slowWriteListener hands out connections that sleep for delay before
// every Write: a slow network the server's writer has to wait on.
type slowWriteListener struct {
	net.Listener
	delay time.Duration
}

func (l slowWriteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowWriteConn{Conn: c, delay: l.delay}, nil
}

type slowWriteConn struct {
	net.Conn
	delay time.Duration
}

func (c slowWriteConn) Write(b []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(b)
}

// TestEncodeSpanExcludesTheWrite: the encode span is the time spent
// building the response frame; putting it on the connection is the
// write span. Over a connection that stalls every write for 30 ms, the
// stall must land in write, not in encode.
func TestEncodeSpanExcludesTheWrite(t *testing.T) {
	const delay = 30 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(core.MustNew(core.DefaultConfig()))
	srv.SetLogger(quietLogger())
	srv.SetSlowQueryThreshold(time.Nanosecond) // retain every trace
	addr := srv.Serve(slowWriteListener{Listener: ln, delay: delay})
	t.Cleanup(func() { srv.Close() })
	cl := dial(t, addr.String())

	resp, err := cl.Raw(ctx, Request{Op: OpCountUsers, Rect: &Rect{MaxX: 1, MaxY: 1}})
	if err != nil || !resp.OK {
		t.Fatalf("count_users: %+v, %v", resp, err)
	}
	var tr *trace.Trace
	for deadline := time.Now().Add(2 * time.Second); tr == nil && time.Now().Before(deadline); {
		if tr = trace.Default.Find(resp.TraceID); tr == nil {
			time.Sleep(time.Millisecond)
		}
	}
	if tr == nil {
		t.Fatalf("trace %q not retained", resp.TraceID)
	}
	spans := make(map[string]time.Duration)
	for _, sp := range tr.Spans() {
		spans[sp.Name] = time.Duration(sp.DurNS)
	}
	enc, okEnc := spans["encode"]
	wr, okWr := spans["write"]
	if !okEnc || !okWr {
		t.Fatalf("trace lacks an encode or a write span: %v", spans)
	}
	if enc >= delay {
		t.Errorf("encode span %v includes the %v write stall", enc, delay)
	}
	if wr < delay {
		t.Errorf("write span %v, want at least the %v write stall", wr, delay)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
