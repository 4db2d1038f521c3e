package protocol

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// Interop: a client and a server of this build agree on everything;
// peers that are not (another binary revision, a JSON line, a mute
// server) are refused at the handshake, before any frame is decoded.

// exerciseClient drives one client through the full request shape:
// register, update, query, range, stats.
func exerciseClient(t *testing.T, cl *Client, uid int64) {
	t.Helper()
	if err := cl.Register(ctx, uid, 1000, 1000, 1, 0); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := cl.Update(ctx, uid, 1010, 1010); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := cl.NearestPublic(ctx, uid); err != nil {
		t.Fatalf("nn: %v", err)
	}
	if _, _, err := cl.RangePublic(ctx, uid, 300); err != nil {
		t.Fatalf("range: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Users == 0 {
		t.Fatal("stats reports zero users after a register")
	}
	// Application errors carry their sentinel across the wire.
	if err := cl.Update(ctx, uid+100000, 1, 1); !errors.Is(err, ErrNotRegisteredWire()) {
		t.Fatalf("unregistered update error = %v", err)
	}
}

// ErrNotRegisteredWire avoids importing core twice in this file's
// tests; the sentinel table already maps the code both ways.
func ErrNotRegisteredWire() error { return sentinelOf(CodeNotRegistered) }

func TestInteropV2Client(t *testing.T) {
	exerciseClient(t, dial(t, startServer(t)), 9002)
}

// TestV2PipeliningStress keeps 64 requests in flight on ONE connection
// and verifies every response lands on the request that asked for it,
// using the trace-id echo as a per-request nonce. Run under -race this
// also exercises the client's demux and writer paths.
func TestV2PipeliningStress(t *testing.T) {
	addr := startServer(t)
	cl := dial(t, addr, WithMaxInFlight(64))

	if err := cl.Register(ctx, 1, 2000, 2000, 1, 0); err != nil {
		t.Fatal(err)
	}

	const workers = 64
	const perWorker = 50
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				nonce := fmt.Sprintf("w%d-r%d", w, j)
				resp, err := cl.Raw(ctx, Request{Op: OpNearestPublic, UserID: 1, TraceID: nonce})
				if err != nil {
					errc <- fmt.Errorf("%s: %w", nonce, err)
					return
				}
				if !resp.OK {
					errc <- fmt.Errorf("%s: %s", nonce, resp.Error)
					return
				}
				if resp.TraceID != nonce {
					errc <- fmt.Errorf("response for %q delivered to %q: pipelining mismatch", resp.TraceID, nonce)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestV2DeadlineDoesNotPoison: a call whose context expired before it
// was sent fails with the context's error and leaves the connection
// usable (TestContextDeadlineAndPoisoning covers a call abandoned
// mid-flight).
func TestV2DeadlineDoesNotPoison(t *testing.T) {
	cl := dial(t, startServer(t))
	if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	err := cl.Update(expired, 1, 2, 2)
	if err == nil {
		t.Fatal("expired context succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("expired call error = %v", err)
	}
	// Same connection keeps working.
	for i := 0; i < 10; i++ {
		if err := cl.Update(ctx, 1, float64(100+i), 100); err != nil {
			t.Fatalf("connection unusable after abandoned call: %v", err)
		}
	}
}

// TestV2HandshakeRejectsOldServer pins the failure mode of dialing a
// client at something that does not speak the handshake: a clear
// dial-time error, not a hang (the deadline converts it).
func TestV2HandshakeRejectsOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // reads but never answers
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()
	_, err = DialContext(ctx, ln.Addr().String(), WithDialTimeout(200*time.Millisecond))
	if err == nil {
		t.Fatal("handshake against a mute server succeeded")
	}
	if !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("error does not mention the handshake: %v", err)
	}
}

// expectRefusal opens a connection whose first bytes are payload and
// checks the server answers exactly its hello, then EOF: nothing after
// the first five bytes is decoded, let alone dispatched.
func expectRefusal(t *testing.T, payload []byte) {
	t.Helper()
	srv := newLifecycleServer(t)
	srv.dispatchHook = func(req Request) { t.Errorf("request %q dispatched past a refused handshake", req.Op) }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	malformedBefore := rpcMalformed.Value()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if !bytes.Equal(got, hello[:]) {
		t.Fatalf("refusal = %x, want the handshake reply %x and nothing else", got, hello[:])
	}
	if rpcMalformed.Value() != malformedBefore {
		t.Fatal("a frame from the refused client reached the decoder")
	}
}

// TestV2ServerRefusesOtherRevisions pins how the packed response
// layout was rolled out: there is no fallback decoder and nothing is
// negotiated, so a client built before it (handshake byte 2, the
// fixed-width layout) — or after it, with a layout this server has
// never heard of — is refused at the handshake. It is told which
// revision the server speaks, and the request frame it pipelined
// behind its hello is never decoded.
func TestV2ServerRefusesOtherRevisions(t *testing.T) {
	for _, rev := range []byte{binaryRevision - 1, binaryRevision + 1} {
		t.Run(fmt.Sprintf("revision%d", rev), func(t *testing.T) {
			other := append(hello[:4:4], rev)
			expectRefusal(t, append(other, rawFrame(1, rawRequest(t, Request{Op: OpStats}))...))
		})
	}
}

// TestJSONLineRefusedAtHandshake: there is one wire. A newline JSON
// request — what netcat or a client of the retired JSON protocol sends
// — fails the same five-byte comparison as a foreign revision.
func TestJSONLineRefusedAtHandshake(t *testing.T) {
	expectRefusal(t, []byte(`{"op":"stats"}`+"\n"))
}

// TestV2ClientRefusesOtherRevision is the mirror image: a client of
// this build dialing a server that answers with another revision fails
// the dial with an "unsupported version" error naming both revisions.
func TestV2ClientRefusesOtherRevision(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hello [handshakeLen]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return
		}
		conn.Write(append(hello[:4:4], binaryRevision-1))
	}()
	_, err = DialContext(ctx, ln.Addr().String(), WithDialTimeout(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("dial against another revision = %v, want an unsupported-version error", err)
	}
}
