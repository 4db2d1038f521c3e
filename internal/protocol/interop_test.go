package protocol

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// Interop matrix: the same server must serve v1 JSON clients and v2
// binary clients — simultaneously, on the same listener — with
// identical application semantics. These tests pin each cell.

// dialVersion dials addr pinned to the given protocol version.
func dialVersion(t *testing.T, addr string, version int) *Client {
	t.Helper()
	cl, err := DialContext(ctx, addr, WithProtocolVersion(version))
	if err != nil {
		t.Fatalf("dial v%d: %v", version, err)
	}
	t.Cleanup(func() { cl.Close() })
	if got := cl.ProtocolVersion(); got != version {
		t.Fatalf("ProtocolVersion() = %d, want %d", got, version)
	}
	return cl
}

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
	// Application errors carry the same sentinel either way.
	if err := cl.Update(ctx, uid+100000, 1, 1); !errors.Is(err, ErrNotRegisteredWire()) {
		t.Fatalf("unregistered update error = %v", err)
	}
}

// ErrNotRegisteredWire avoids importing core twice in this file's
// tests; the sentinel table already maps the code both ways.
func ErrNotRegisteredWire() error { return sentinelOf(CodeNotRegistered) }

func TestInteropV1ClientV2Server(t *testing.T) {
	addr := startServer(t)
	cl := dialVersion(t, addr, 1)
	exerciseClient(t, cl, 9001)
}

func TestInteropV2Client(t *testing.T) {
	addr := startServer(t)
	cl := dialVersion(t, addr, 2)
	exerciseClient(t, cl, 9002)
}

// TestInteropRawV1JSON speaks raw newline-delimited JSON through a
// bare net.Conn — the strongest form of "v1 clients work unmodified":
// no Client code at all, exactly what netcat would send.
func TestInteropRawV1JSON(t *testing.T) {
	addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	br := bufio.NewReader(conn)

	send := func(req Request) Response {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("bad JSON response %q: %v", line, err)
		}
		return resp
	}

	if resp := send(Request{Op: OpRegister, UserID: 77, X: 5, Y: 5, K: 1}); !resp.OK {
		t.Fatalf("register over raw JSON: %+v", resp)
	}
	if resp := send(Request{Op: OpNearestPublic, UserID: 77}); !resp.OK {
		t.Fatalf("nn over raw JSON: %+v", resp)
	}
}

// TestInteropMixedVersions runs v1 and v2 clients concurrently against
// one server and checks both see a consistent world.
func TestInteropMixedVersions(t *testing.T) {
	addr := startServer(t)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		version := 1 + i%2
		uid := int64(100 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := DialContext(ctx, addr, WithProtocolVersion(version))
			if err != nil {
				errc <- fmt.Errorf("dial v%d: %w", version, err)
				return
			}
			defer cl.Close()
			if err := cl.Register(ctx, uid, float64(uid), float64(uid), 1, 0); err != nil {
				errc <- fmt.Errorf("v%d register %d: %w", version, uid, err)
				return
			}
			for j := 0; j < 20; j++ {
				if err := cl.Update(ctx, uid, float64(uid)+float64(j), float64(uid)); err != nil {
					errc <- fmt.Errorf("v%d update: %w", version, err)
					return
				}
				if _, err := cl.NearestPublic(ctx, uid); err != nil {
					errc <- fmt.Errorf("v%d nn: %w", version, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	cl := dialVersion(t, addr, 2)
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 8 {
		t.Fatalf("users = %d after 8 mixed-version registers, want 8", st.Users)
	}
}

// TestV2PipeliningStress keeps 64 requests in flight on ONE connection
// and verifies every response lands on the request that asked for it,
// using the trace-id echo as a per-request nonce. Run under -race this
// also exercises the client's demux and writer paths.
func TestV2PipeliningStress(t *testing.T) {
	addr := startServer(t)
	cl, err := DialContext(ctx, addr, WithProtocolVersion(2), WithMaxInFlight(64))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

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

// TestV2DeadlineDoesNotPoison is the v2 counterpart of
// TestContextDeadlineAndPoisoning: with request ids there is no stream
// to desync, so an abandoned call must NOT take the connection down.
func TestV2DeadlineDoesNotPoison(t *testing.T) {
	addr := startServer(t)
	cl := dialVersion(t, addr, 2)
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
			t.Fatalf("connection unusable after abandoned v2 call: %v", err)
		}
	}
}

// TestV2DeprecatedBatchUpdate pins the deprecation split: v2 rejects
// the legacy op with the wire-stable deprecated_op code; v1 still
// applies it.
func TestV2DeprecatedBatchUpdate(t *testing.T) {
	addr := startServer(t)
	batch := []BatchUpdate{{UserID: 1, X: 50, Y: 50}}

	v2 := dialVersion(t, addr, 2)
	if err := v2.Register(ctx, 1, 40, 40, 1, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := v2.Raw(ctx, Request{Op: OpBatchUpdate, Batch: batch})
	if err != nil {
		t.Fatalf("transport error, want application error: %v", err)
	}
	if resp.OK || resp.Code != CodeDeprecatedOp {
		t.Fatalf("v2 batch_update = %+v, want code %q", resp, CodeDeprecatedOp)
	}
	we := &WireError{Op: OpBatchUpdate, Code: resp.Code, Message: resp.Error}
	if !errors.Is(we, ErrDeprecatedOp) {
		t.Fatalf("code %q does not unwrap to ErrDeprecatedOp", resp.Code)
	}
	if !strings.Contains(resp.Error, OpUpdateBatch) {
		t.Fatalf("rejection does not name the replacement op: %q", resp.Error)
	}

	v1 := dialVersion(t, addr, 1)
	resp, err = v1.Raw(ctx, Request{Op: OpBatchUpdate, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Count != 1 {
		t.Fatalf("v1 batch_update = %+v, want 1 applied", resp)
	}
	// The modern spelling works on both.
	if n, err := v2.BatchUpdate(ctx, batch); err != nil || n != 1 {
		t.Fatalf("v2 update_batch = (%d, %v)", n, err)
	}
}

// TestV2HandshakeRejectsOldServer pins the failure mode of dialing a
// v2 client at something that does not speak the handshake: a clear
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
			go func(c net.Conn) { // reads but never answers, like a v1-only server
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
	_, err = DialContext(ctx, ln.Addr().String(),
		WithProtocolVersion(2), WithDialTimeout(200*time.Millisecond))
	if err == nil {
		t.Fatal("handshake against a mute server succeeded")
	}
	if !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("error does not mention the handshake: %v", err)
	}
}

// TestV2ServerRejectsV1OnlyClientMax pins the server side of version
// negotiation: a client whose advertised max is below v2 cannot open a
// framed connection (it should have spoken plain JSON instead).
func TestV2ServerRejectsV1OnlyClientMax(t *testing.T) {
	addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hs := append([]byte{}, magicV2[:]...)
	hs = append(hs, Version1) // magic, but an impossible version
	if _, err := conn.Write(hs); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	n, _ := conn.Read(buf)
	if _, err := conn.Read(buf); err == nil {
		t.Fatalf("connection stayed open after bad version (read %d bytes: %q)", n, buf[:n])
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

			hello := append(append([]byte{}, magicV2[:]...), rev)
			bp, err := encodeRequestFrame(1, &Request{Op: OpStats})
			if err != nil {
				t.Fatal(err)
			}
			hello = append(hello, *bp...)
			putFrameBuf(bp)
			if _, err := conn.Write(hello); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// Exactly the handshake reply comes back, then the connection closes.
			got, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("reading the refusal: %v", err)
			}
			want := append(append([]byte{}, magicV2[:]...), binaryRevision)
			if !bytes.Equal(got, want) {
				t.Fatalf("refusal = %x, want the handshake reply %x and nothing else", got, want)
			}
			if rpcMalformed.Value() != malformedBefore {
				t.Fatal("a frame from the refused client reached the decoder")
			}
		})
	}
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
		conn.Write(append(append([]byte{}, magicV2[:]...), binaryRevision-1))
	}()
	_, err = DialContext(ctx, ln.Addr().String(), WithDialTimeout(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("dial against another revision = %v, want an unsupported-version error", err)
	}
}
