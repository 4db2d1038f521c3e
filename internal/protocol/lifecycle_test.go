// lifecycle_test.go pins the front-door lifecycle down: the accept
// loop must survive transient failures, Shutdown must drain in-flight
// work while cutting idle connections, the drain deadline must
// force-close stragglers, stalled writers must be cut, and
// admission-control sheds must round-trip as the retryable
// ErrOverloaded.
package protocol

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/trace"
)

// newLifecycleServer builds a server over a small world without
// starting it, so tests can set hooks and knobs before serving.
func newLifecycleServer(t *testing.T) *Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Universe = geom.R(0, 0, 4096, 4096)
	cfg.PyramidLevels = 7
	srv := NewServer(core.MustNew(cfg))
	srv.SetLogger(quietLogger())
	return srv
}

// flakyListener fails its first `fails` Accept calls with a transient
// error, then behaves like the wrapped listener. This is the
// fd-exhaustion / reset-mid-accept shape that used to kill the accept
// loop permanently.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, tempError{}
	}
	return l.Listener.Accept()
}

type tempError struct{}

func (tempError) Error() string   { return "injected transient accept failure" }
func (tempError) Timeout() bool   { return false }
func (tempError) Temporary() bool { return true }

func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	fl.fails.Store(3)

	srv := newLifecycleServer(t)
	before := acceptErrors.Value()
	addr := srv.Serve(fl)
	t.Cleanup(func() { srv.Close() })

	// The loop must absorb the injected failures (with backoff) and
	// still accept this connection.
	cl, err := DialContext(ctx, addr.String())
	if err != nil {
		t.Fatalf("dial after transient accept errors: %v", err)
	}
	defer cl.Close()
	if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
		t.Fatalf("rpc after transient accept errors: %v", err)
	}
	if got := acceptErrors.Value() - before; got != 3 {
		t.Fatalf("casper_accept_errors_total rose by %d; want 3", got)
	}
}

func TestShutdownDrainsInFlightAndCutsIdle(t *testing.T) {
	srv := newLifecycleServer(t)
	park := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.dispatchHook = func(req Request) {
		if req.Op == OpUpdate {
			entered <- struct{}{}
			<-park
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// An active connection with one request parked in dispatch.
	active, err := DialContext(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	if err := active.Register(ctx, 1, 100, 100, 1, 0); err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan error, 1)
	go func() { inFlight <- active.Update(ctx, 1, 200, 200) }()
	<-entered

	// An idle connection: it has completed a request and now sits
	// blocked in a read.
	idle := dial(t, addr.String())
	if err := idle.Register(ctx, 3, 400, 400, 1, 0); err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutRes := make(chan error, 1)
	go func() { shutRes <- srv.Shutdown(sctx) }()

	// The drain must wait for the parked request, not complete around it.
	select {
	case err := <-shutRes:
		t.Fatalf("Shutdown returned %v while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Release the parked dispatch: its response must reach the client
	// and the drain must then complete inside the deadline.
	close(park)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request lost during drain: %v", err)
	}
	if err := <-shutRes; err != nil {
		t.Fatalf("Shutdown = %v; want nil (clean drain)", err)
	}

	// The idle connection was cut by the drain, not left dangling.
	cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer ccancel()
	if err := idle.Update(cctx, 3, 410, 410); err == nil {
		t.Fatal("idle connection still serving after Shutdown")
	}
}

func TestShutdownForceClosesPastDeadline(t *testing.T) {
	srv := newLifecycleServer(t)
	park := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.dispatchHook = func(req Request) {
		if req.Op == OpUpdate {
			entered <- struct{}{}
			<-park
		}
	}
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
	if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan error, 1)
	go func() { inFlight <- cl.Update(ctx, 1, 200, 200) }()
	<-entered

	before := connsForceClosed.Value()
	sctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	shutRes := make(chan error, 1)
	go func() { shutRes <- srv.Shutdown(sctx) }()

	// Past the deadline the connection is force-closed out from under
	// the parked request: the client sees a failure, not a hang.
	if err := <-inFlight; err == nil {
		t.Fatal("request survived a force-close; want an error")
	}
	close(park) // let the parked dispatch goroutine finish
	if err := <-shutRes; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v; want context.DeadlineExceeded", err)
	}
	if got := connsForceClosed.Value() - before; got < 1 {
		t.Fatalf("casper_connections_force_closed_total rose by %d; want >= 1", got)
	}
}

func TestCloseCutsIdleConnections(t *testing.T) {
	srv := newLifecycleServer(t)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Close is the immediate-deadline drain: it must return promptly
	// even with this connection open and idle, and cut it.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close = %v; want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer ccancel()
	if err := cl.Update(cctx, 1, 200, 200); err == nil {
		t.Fatal("connection still serving after Close")
	}
}

func TestOverloadedRoundTrip(t *testing.T) {
	// "v2" names the binary wire, the only one left; the subtest keeps
	// the name it had in the version matrix.
	t.Run("v2", func(t *testing.T) {
		t.Run("rate_limit", func(t *testing.T) {
			srv := newLifecycleServer(t)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			// One token, refilling at a negligible rate: the first request
			// spends it, the second must shed.
			srv.SetRateLimit(0.001, 1)

			cl := dial(t, addr.String())
			before := shedTotal.With(shedReasonRateLimit).Value()
			if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
				t.Fatalf("first request shed: %v", err)
			}
			err = cl.Update(ctx, 1, 200, 200)
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("errors.Is(%v, ErrOverloaded) = false; want the retryable sentinel", err)
			}
			if got := shedTotal.With(shedReasonRateLimit).Value() - before; got != 1 {
				t.Fatalf("casper_shed_total{reason=%q} rose by %d; want 1", shedReasonRateLimit, got)
			}

			// The shed is retryable: the same connection keeps working once
			// admission allows (uid 0 stats bypass the bucket).
			if _, err := cl.Stats(ctx); err != nil {
				t.Fatalf("connection unusable after a shed: %v", err)
			}
		})

		t.Run("inflight", func(t *testing.T) {
			srv := newLifecycleServer(t)
			park := make(chan struct{})
			entered := make(chan struct{}, 1)
			srv.dispatchHook = func(req Request) {
				if req.Op == OpUpdate {
					entered <- struct{}{}
					<-park
				}
			}
			srv.SetMaxConcurrent(1)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })

			holder := dial(t, addr.String())
			if err := holder.Register(ctx, 1, 100, 100, 1, 0); err != nil {
				t.Fatal(err)
			}
			inFlight := make(chan error, 1)
			go func() { inFlight <- holder.Update(ctx, 1, 200, 200) }()
			<-entered

			// With the single slot held, a second connection sheds.
			other := dial(t, addr.String())
			err = other.Register(ctx, 2, 300, 300, 1, 0)
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("errors.Is(%v, ErrOverloaded) = false; want the retryable sentinel", err)
			}

			close(park)
			if err := <-inFlight; err != nil {
				t.Fatalf("slot-holding request failed: %v", err)
			}
			// Slot released: the retry now succeeds.
			if err := other.Register(ctx, 2, 300, 300, 1, 0); err != nil {
				t.Fatalf("retry after release failed: %v", err)
			}
		})
	})
}

// TestOversizedResponseFailsOnlyItsRequest: an answer that cannot fit
// one frame (a 400 x 400 density map is 1.28 MB) used to be written
// anyway; the client's frame reader refused it and failed every request
// in flight on the connection. It must cost one response_too_large
// error, matched to its request, with the stream — and the sibling
// request parked behind it — unharmed.
func TestOversizedResponseFailsOnlyItsRequest(t *testing.T) {
	srv := newLifecycleServer(t)
	park := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.dispatchHook = func(req Request) {
		if req.Op == OpStats {
			entered <- struct{}{}
			<-park
		}
	}
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

	sibling := make(chan error, 1)
	go func() {
		_, err := cl.Stats(ctx)
		sibling <- err
	}()
	<-entered // the sibling is in flight, held in dispatch

	_, err = cl.Density(ctx, 400)
	close(park)
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("oversized density = %v, want ErrResponseTooLarge", err)
	}
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeResponseTooLarge {
		t.Errorf("oversized density = %v, want wire code %q", err, CodeResponseTooLarge)
	}
	if err := <-sibling; err != nil {
		t.Errorf("sibling request in flight beside the oversized response: %v", err)
	}
	// And the connection keeps serving, including a density that fits.
	if grid, err := cl.Density(ctx, 64); err != nil || len(grid) != 64 {
		t.Errorf("density 64 after the oversized one: %d rows, %v", len(grid), err)
	}
}

// TestHugeTraceIDIsClampedWithTracingOff: with tracing off the server
// used to echo the client's trace id untruncated, so a legal request
// carrying one just under MaxFrameBytes made the response — and the
// response_too_large reply that copied the id — exceed the frame limit;
// the writer then dereferenced a nil frame and took the process down.
// The id is clamped at decode, tracing or not.
func TestHugeTraceIDIsClampedWithTracingOff(t *testing.T) {
	trace.SetEnabled(false)
	t.Cleanup(func() { trace.SetEnabled(true) })
	t.Run("v2", func(t *testing.T) {
		cl := dial(t, startServer(t))
		huge := strings.Repeat("x", MaxFrameBytes-40)
		cl.SetNextTraceID(huge)
		if _, err := cl.Stats(ctx); err != nil {
			t.Fatalf("stats with a %d-byte trace id: %v", len(huge), err)
		}
		if got := cl.LastTraceID(); got != huge[:64] {
			t.Fatalf("echoed trace id is %d bytes, want the first 64", len(got))
		}
		// The connection (and the server) keep serving.
		if _, err := cl.Stats(ctx); err != nil {
			t.Fatalf("stats after the huge trace id: %v", err)
		}
	})
}

// TestV2WriterSurrendersWhenErrorReplyCannotFit drives the writer's
// last resort directly: if even the response_too_large reply exceeds
// the frame limit (impossible through the read loop, which clamps the
// trace id) the connection is closed; nothing is written and nothing
// panics.
func TestV2WriterSurrendersWhenErrorReplyCannotFit(t *testing.T) {
	srv := newLifecycleServer(t)
	cli, conn := net.Pipe()
	defer cli.Close()
	out := make(chan outFrame, 2)
	done := make(chan struct{})
	go srv.writeLoop(conn, out, done)
	out <- outFrame{id: 1, resp: Response{OK: true, TraceID: strings.Repeat("x", MaxFrameBytes)}}
	out <- outFrame{id: 2, resp: Response{OK: true}} // drained, not written
	close(out)
	<-done
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := cli.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read = %d bytes, %v; want EOF from a closed connection", n, err)
	}
}

// syncBuffer is an io.Writer safe for the server's concurrent logging.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestWriteTimeoutDropsStalledClient: a client that pipelines requests
// but never drains the responses cannot park the connection's writer —
// the write deadline closes the connection.
func TestWriteTimeoutDropsStalledClient(t *testing.T) {
	srv := newLifecycleServer(t)
	var logged syncBuffer
	srv.SetLogger(slog.New(slog.NewTextHandler(&logged, nil)))
	srv.WriteTimeout = 200 * time.Millisecond
	srv.IdleTimeout = 0
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := rawConn(t, addr.String())
	// Each 64 x 64 density answer is 32 KiB, so the unread socket
	// buffers fill after a few frames; keep sending without ever reading
	// until the server's write stalls and times out.
	frame := rawFrame(1, rawRequest(t, Request{Op: OpDensity, NN: 64}))
	// The client's own write deadline spans the whole budget: on a
	// slow (race-instrumented, loaded) machine the server can take
	// seconds to reach its first blocked write, and breaking early on
	// a short client-side deadline would skip the very stall this
	// test exists to provoke. Only a real error — the server dropping
	// the connection — ends the loop.
	deadline := time.Now().Add(10 * time.Second)
	conn.SetWriteDeadline(deadline)
	for time.Now().Before(deadline) {
		if _, err := conn.Write(frame); err != nil {
			break // server gave up on us: deadline fired
		}
	}
	// Closing the server must not hang on the stalled connection; that
	// is the regression this test guards.
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("server close blocked on a stalled client write")
	}
	if !strings.Contains(logged.String(), "response write exceeded") {
		t.Fatal("write timeout never fired")
	}
}
