// lifecycle_test.go pins the front-door lifecycle down: the accept
// loop must survive transient failures, Shutdown must drain in-flight
// work while cutting idle connections, the drain deadline must
// force-close stragglers, and admission-control sheds must round-trip
// as the retryable ErrOverloaded on both protocol versions.
package protocol

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
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
	srv.SetLogf(func(string, ...any) {})
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
	cl, err := Dial(addr.String())
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

	// An active v2 connection with one request parked in dispatch.
	active, err := Dial(addr.String())
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

	// Idle connections on both protocol versions: each has completed a
	// request and now sits blocked in a read.
	idleV1, err := Dial(addr.String(), WithProtocolVersion(1))
	if err != nil {
		t.Fatal(err)
	}
	defer idleV1.Close()
	if err := idleV1.Register(ctx, 2, 300, 300, 1, 0); err != nil {
		t.Fatal(err)
	}
	idleV2, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer idleV2.Close()
	if err := idleV2.Register(ctx, 3, 400, 400, 1, 0); err != nil {
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

	// The idle connections were cut by the drain, not left dangling.
	cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer ccancel()
	if err := idleV1.Update(cctx, 2, 310, 310); err == nil {
		t.Fatal("idle v1 connection still serving after Shutdown")
	}
	if err := idleV2.Update(cctx, 3, 410, 410); err == nil {
		t.Fatal("idle v2 connection still serving after Shutdown")
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

	cl, err := Dial(addr.String())
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
	cl, err := Dial(addr.String())
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
	for _, version := range []int{1, 2} {
		t.Run(versionName(version), func(t *testing.T) {
			t.Run("rate_limit", func(t *testing.T) {
				srv := newLifecycleServer(t)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				// One token, refilling at a negligible rate: the first
				// request spends it, the second must shed.
				srv.SetRateLimit(0.001, 1)

				cl, err := Dial(addr.String(), WithProtocolVersion(version))
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
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

				// The shed is retryable: the same connection keeps working
				// once admission allows (uid 0 stats bypass the bucket).
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

				holder, err := Dial(addr.String(), WithProtocolVersion(version))
				if err != nil {
					t.Fatal(err)
				}
				defer holder.Close()
				if err := holder.Register(ctx, 1, 100, 100, 1, 0); err != nil {
					t.Fatal(err)
				}
				inFlight := make(chan error, 1)
				go func() { inFlight <- holder.Update(ctx, 1, 200, 200) }()
				<-entered

				// With the single slot held, a second connection sheds.
				other, err := Dial(addr.String(), WithProtocolVersion(version))
				if err != nil {
					t.Fatal(err)
				}
				defer other.Close()
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
}

func versionName(v int) string {
	if v == 1 {
		return "v1"
	}
	return "v2"
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
	cl, err := Dial(addr.String())
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
// the v2 writer then dereferenced a nil frame and took the process
// down. The id is clamped at decode on both wires, tracing or not.
func TestHugeTraceIDIsClampedWithTracingOff(t *testing.T) {
	trace.SetEnabled(false)
	t.Cleanup(func() { trace.SetEnabled(true) })
	addr := startServer(t)
	huge := strings.Repeat("x", MaxFrameBytes-40)
	for _, version := range []int{Version1, Version2} {
		t.Run(versionName(version), func(t *testing.T) {
			cl, err := DialContext(ctx, addr, WithProtocolVersion(version))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
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
	out := make(chan v2Out, 2)
	done := make(chan struct{})
	go srv.v2Writer(conn, out, done)
	out <- v2Out{id: 1, resp: Response{OK: true, TraceID: strings.Repeat("x", MaxFrameBytes)}}
	out <- v2Out{id: 2, resp: Response{OK: true}} // drained, not written
	close(out)
	<-done
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := cli.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read = %d bytes, %v; want EOF from a closed connection", n, err)
	}
}
