package protocol

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/server"
)

// ctx is the do-not-care context for RPCs whose deadline is irrelevant
// to the test at hand.
var ctx = context.Background()

// startServer spins up a protocol server over a small Casper world and
// returns its address plus a cleanup-registered close.
func startServer(t *testing.T) string {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Universe = geom.R(0, 0, 4096, 4096)
	cfg.PyramidLevels = 7
	c := core.MustNew(cfg)
	// Preload public objects.
	rng := rand.New(rand.NewSource(1))
	objs := make([]server.PublicObject, 200)
	for i := range objs {
		objs[i] = server.PublicObject{
			ID:   int64(i),
			Pos:  geom.Pt(rng.Float64()*4096, rng.Float64()*4096),
			Name: fmt.Sprintf("poi-%d", i),
		}
	}
	c.LoadPublicObjects(objs)

	srv := NewServer(c)
	srv.SetLogger(quietLogger()) // silence accept-loop noise
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// quietLogger discards the server's log output.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// dial connects a Client to addr and closes it when the test ends.
func dial(t *testing.T, addr string, opts ...DialOption) *Client {
	t.Helper()
	cl, err := DialContext(ctx, addr, opts...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// rawConn dials addr and completes the handshake by hand, for tests
// that write frames a Client never would.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var reply [handshakeLen]byte
	if _, err := io.ReadFull(br, reply[:]); err != nil || reply != hello {
		t.Fatalf("handshake reply %q, %v", reply[:], err)
	}
	return conn, br
}

// rawFrame is one frame carrying payload under id.
func rawFrame(id uint64, payload []byte) []byte {
	return finishFrame(append(beginFrame(nil, id), payload...))
}

// rawRequest is the payload of req.
func rawRequest(t *testing.T, req Request) []byte {
	t.Helper()
	b, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readRawResponse reads and decodes one response frame.
func readRawResponse(t *testing.T, br *bufio.Reader) (uint64, Response) {
	t.Helper()
	var buf []byte
	id, payload, err := readFrame(br, &buf)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		t.Fatalf("decode response frame %d: %v", id, err)
	}
	return id, resp
}

func TestRectRoundTrip(t *testing.T) {
	g := geom.R(1, 2, 3, 4)
	if got := FromGeom(g).ToGeom(); got != g {
		t.Fatalf("round trip = %v", got)
	}
}

func TestRegisterQueryFlow(t *testing.T) {
	addr := startServer(t)
	cl, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Register(ctx, 1, 100, 100, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ctx, 2, 120, 110, 2, 0); err != nil {
		t.Fatal(err)
	}
	res, err := cl.NearestPublic(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if res.Exact.Name == "" || !strings.HasPrefix(res.Exact.Name, "poi-") {
		t.Fatalf("exact answer lacks payload: %+v", res.Exact)
	}
	if res.Cost.Candidates != len(res.Candidates) {
		t.Fatal("cost mismatch")
	}

	// Buddy query: user 1's nearest buddy is user 2's cloak.
	buddy, err := cl.NearestBuddy(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(buddy.Candidates) == 0 {
		t.Fatal("no buddy candidates")
	}

	// Range query.
	items, _, err := cl.RangePublic(ctx, 1, 800)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		p := geom.Pt(it.Rect.MinX, it.Rect.MinY)
		if p.Dist(geom.Pt(100, 100)) > 800+1e-6 {
			t.Fatalf("range answer %v too far", p)
		}
	}

	// Admin count.
	n, err := cl.CountUsers(ctx, Rect{MinX: 0, MinY: 0, MaxX: 4096, MaxY: 4096}, "any-overlap")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("CountUsers = %v", n)
	}

	// Stats.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 2 || st.PublicObjs != 200 || st.Queries < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUpdateMovesUser(t *testing.T) {
	addr := startServer(t)
	cl, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(ctx, 1, 10, 10, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Update(ctx, 1, 4000, 4000); err != nil {
		t.Fatal(err)
	}
	n, err := cl.CountUsers(ctx, Rect{MinX: 3500, MinY: 3500, MaxX: 4096, MaxY: 4096}, "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("user did not move: count = %v", n)
	}
	if err := cl.Deregister(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Update(ctx, 1, 1, 1); err == nil {
		t.Fatal("update after deregister should fail")
	}
}

func TestSetProfileOverWire(t *testing.T) {
	addr := startServer(t)
	cl, _ := DialContext(ctx, addr)
	defer cl.Close()
	for i := int64(0); i < 30; i++ {
		if err := cl.Register(ctx, i, float64(i*50), float64(i*37), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SetProfile(ctx, 0, 20, 0); err != nil {
		t.Fatal(err)
	}
	res, err := cl.NearestPublic(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates after profile change")
	}
}

func TestApplicationErrors(t *testing.T) {
	addr := startServer(t)
	cl, _ := DialContext(ctx, addr)
	defer cl.Close()
	if err := cl.Update(ctx, 99, 1, 1); err == nil {
		t.Fatal("unknown user accepted")
	}
	if err := cl.Register(ctx, 1, 10, 10, 0, 0); err == nil {
		t.Fatal("invalid profile accepted")
	}
	if _, err := cl.CountUsers(ctx, Rect{}, "bogus-policy"); err == nil {
		t.Fatal("bad policy accepted")
	}
	resp, err := cl.Raw(ctx, Request{Op: "no-such-op"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("response = %+v", resp)
	}
	// count_users without a rect.
	resp, err = cl.Raw(ctx, Request{Op: OpCountUsers})
	if err != nil || resp.OK {
		t.Fatalf("missing rect: %+v, %v", resp, err)
	}
}

// TestMalformedFrameGetsErrorResponse: a payload that does not decode
// costs one error response under its own request id, and the stream
// stays synchronized — the next frame on the connection is answered.
func TestMalformedFrameGetsErrorResponse(t *testing.T) {
	addr := startServer(t)
	conn, br := rawConn(t, addr)
	if _, err := conn.Write(rawFrame(7, []byte{0xFF, 0, 0, 0, 0})); err != nil { // an unassigned opcode
		t.Fatal(err)
	}
	id, resp := readRawResponse(t, br)
	if id != 7 || resp.OK || !strings.Contains(resp.Error, "malformed") {
		t.Fatalf("frame %d: response = %+v, want a malformed-request error for frame 7", id, resp)
	}
	if _, err := conn.Write(rawFrame(8, rawRequest(t, Request{Op: OpStats}))); err != nil {
		t.Fatal(err)
	}
	id, resp = readRawResponse(t, br)
	if id != 8 || !resp.OK || resp.Stats == nil {
		t.Fatalf("frame %d after the malformed one: response = %+v, want stats for frame 8", id, resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			cl, err := DialContext(ctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := int64(0); i < 20; i++ {
				uid := base*100 + i
				if err := cl.Register(ctx, uid, float64(uid%4000), float64((uid*7)%4000), 1, 0); err != nil {
					errs <- err
					return
				}
				if err := cl.Update(ctx, uid, float64((uid*3)%4000), float64((uid*11)%4000)); err != nil {
					errs <- err
					return
				}
				if _, err := cl.NearestPublic(ctx, uid); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cl, _ := DialContext(ctx, addr)
	defer cl.Close()
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 160 {
		t.Fatalf("users = %d, want 160", st.Users)
	}
}

func TestAddPublicOverWire(t *testing.T) {
	addr := startServer(t)
	cl, _ := DialContext(ctx, addr)
	defer cl.Close()
	if err := cl.AddPublic(ctx, 9999, 50, 50, "new-cafe"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddPublic(ctx, 9999, 60, 60, "dup"); err == nil {
		t.Fatal("duplicate public object accepted")
	}
	st, _ := cl.Stats(ctx)
	if st.PublicObjs != 201 {
		t.Fatalf("public objects = %d", st.PublicObjs)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialContext(ctx, "127.0.0.1:1", WithDialTimeout(200*time.Millisecond)); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestKNearestPublicOverWire(t *testing.T) {
	addr := startServer(t)
	cl, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(ctx, 1, 2000, 2000, 1, 0); err != nil {
		t.Fatal(err)
	}
	items, cost, err := cl.KNearestPublic(ctx, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	if cost.Candidates < 3 {
		t.Fatalf("cost = %+v", cost)
	}
	if _, _, err := cl.KNearestPublic(ctx, 1, 0); err == nil {
		t.Fatal("k=0 accepted over wire")
	}
}

// TestOversizedFrameDropsConnection: a length prefix above
// MaxFrameBytes ends the session before the server buffers any of the
// body, and nothing is written back.
func TestOversizedFrameDropsConnection(t *testing.T) {
	addr := startServer(t)
	conn, br := rawConn(t, addr)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if b, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("read after an oversized length prefix = %#x, %v; want EOF", b, err)
	}
}

func TestIdleTimeoutDisconnects(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Universe = geom.R(0, 0, 1024, 1024)
	cfg.PyramidLevels = 5
	srv := NewServer(core.MustNew(cfg))
	srv.SetLogger(quietLogger())
	srv.IdleTimeout = 150 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection not dropped")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("idle drop took too long")
	}
}

func TestBatchUpdateOverWire(t *testing.T) {
	addr := startServer(t)
	cl, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := int64(1); i <= 5; i++ {
		if err := cl.Register(ctx, i, float64(i*100), float64(i*100), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	updates := make([]BatchUpdate, 5)
	for i := range updates {
		updates[i] = BatchUpdate{UserID: int64(i + 1), X: 3000 + float64(i), Y: 3000}
	}
	n, err := cl.BatchUpdate(ctx, updates)
	if err != nil || n != 5 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	count, err := cl.CountUsers(ctx, Rect{MinX: 2500, MinY: 2500, MaxX: 3500, MaxY: 3500}, "")
	if err != nil || count != 5 {
		t.Fatalf("count after batch = %v, %v", count, err)
	}
	// A batch with an unknown user aborts midway, reporting progress.
	bad := []BatchUpdate{
		{UserID: 1, X: 10, Y: 10},
		{UserID: 999, X: 20, Y: 20},
		{UserID: 2, X: 30, Y: 30},
	}
	n, err = cl.BatchUpdate(ctx, bad)
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	if n != 1 {
		t.Fatalf("applied before abort = %d, want 1", n)
	}
}

func TestDensityOverWire(t *testing.T) {
	addr := startServer(t)
	cl, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := int64(0); i < 20; i++ {
		if err := cl.Register(ctx, i, float64(i*100+50), float64((i*150+50)%4000), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	grid, err := cl.Density(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 8 || len(grid[0]) != 8 {
		t.Fatalf("grid %dx%d", len(grid), len(grid[0]))
	}
	total := 0.0
	for _, row := range grid {
		for _, v := range row {
			total += v
		}
	}
	if total < 19.99 || total > 20.01 {
		t.Fatalf("density mass = %v", total)
	}
	// Default resolution.
	grid, err = cl.Density(ctx, 0)
	if err != nil || len(grid) != 16 {
		t.Fatalf("default density: %d, %v", len(grid), err)
	}
	if _, err := cl.Density(ctx, -3); err == nil {
		t.Fatal("negative n accepted")
	}
}
