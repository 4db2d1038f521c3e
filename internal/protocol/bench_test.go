package protocol

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/server"
)

// benchServer is startServer for benchmarks: one world, 200 POIs, one
// registered user to query against.
func benchServer(b *testing.B) string {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Universe = geom.R(0, 0, 4096, 4096)
	cfg.PyramidLevels = 7
	c := core.MustNew(cfg)
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
	if err := c.RegisterUser(benchUID, geom.Pt(benchX, benchY), anonymizer.Profile{K: 1}); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(c)
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return addr.String()
}

// benchUID is the user benchServer registers, at benchX, benchY; the
// protocol benchmarks' round trip is an update that leaves it there,
// which the server drops as a no-op after decode, admission and the
// traced dispatch view.
const (
	benchUID = 1
	benchX   = 2048.0
	benchY   = 2048.0
)

// BenchmarkProtocolSerialized measures a single connection with one
// request in flight at a time: every call waits out a full round trip.
func BenchmarkProtocolSerialized(b *testing.B) {
	addr := benchServer(b)
	cl, err := DialContext(ctx, addr, WithMaxInFlight(1))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Update(ctx, benchUID, benchX, benchY); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolPipelined measures the same RPC on the same kind of
// single connection, but with 64 concurrent requests in flight. The
// pipelining bar is >= 2x the serialized requests/second (see
// BENCH_e2e.json).
func BenchmarkProtocolPipelined(b *testing.B) {
	addr := benchServer(b)
	cl, err := DialContext(ctx, addr, WithMaxInFlight(64))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const workers = 64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	jobs := make(chan struct{}, workers)
	var benchErr error
	var once sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				if err := cl.Update(ctx, benchUID, benchX, benchY); err != nil {
					once.Do(func() { benchErr = err })
					return
				}
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		jobs <- struct{}{}
	}
	close(jobs)
	wg.Wait()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

// nnResponseShape is a named answer to encode or decode.
type nnResponseShape struct {
	name string
	resp Response
}

// nnResponseShapes are the answers that make up the downlink at the
// repository benchmark's scale: 36 public points per nn_public, and an
// nn_buddy answer twice: 179 cloaks in runs of equal rects, as
// measured, and 172 distinct cloaks, the worst case.
func nnResponseShapes() []nnResponseShape {
	return []nnResponseShape{
		{"points36", nnPublicResponse(36)},
		{"cloakruns179", nnBuddyRunsResponse(179)},
		{"cloaks172", nnBuddyResponse(172)},
	}
}

// BenchmarkEncodeNNResponse is the server's per-answer encode cost;
// bytes/frame is what that answer costs on the downlink.
func BenchmarkEncodeNNResponse(b *testing.B) {
	for _, shape := range nnResponseShapes() {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				bp, err := encodeResponseFrame(uint64(i), &shape.resp)
				if err != nil {
					b.Fatal(err)
				}
				n = len(*bp)
				putFrameBuf(bp)
			}
			b.ReportMetric(float64(n), "bytes/frame")
		})
	}
}

// BenchmarkDecodeNNResponse is the client's per-answer decode cost. A
// run of equal names decodes to one string, so allocs/op does not grow
// with the list.
func BenchmarkDecodeNNResponse(b *testing.B) {
	for _, shape := range nnResponseShapes() {
		b.Run(shape.name, func(b *testing.B) {
			payload := appendResponse(nil, &shape.resp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := decodeResponse(payload)
				if err != nil || len(resp.Candidates) != len(shape.resp.Candidates) {
					b.Fatalf("decode: %d candidates, %v", len(resp.Candidates), err)
				}
			}
			b.ReportMetric(float64(len(payload)+4+frameIDLen), "bytes/frame")
		})
	}
}
