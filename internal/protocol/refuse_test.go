package protocol

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/server"
	"casper/internal/trace"
)

// TestDensityFitsMatchesCodec pins densityFits to the codec: the
// finest grid it admits encodes, with the longest trace id a response
// echoes, into a frame the peer accepts, and one row and column more
// does not.
func TestDensityFitsMatchesCodec(t *testing.T) {
	id := strings.Repeat("t", trace.MaxIDLen)
	encodes := func(n int) bool {
		grid := make([][]float64, n)
		for i := range grid {
			grid[i] = make([]float64, n)
		}
		bp, err := encodeResponseFrame(1, &Response{OK: true, Density: grid, TraceID: id})
		if err != nil {
			return false
		}
		putFrameBuf(bp)
		return true
	}
	const finest = 361
	if !densityFits(finest) || densityFits(finest+1) {
		t.Fatalf("densityFits(%d) = %v, densityFits(%d) = %v; want true, false",
			finest, densityFits(finest), finest+1, densityFits(finest+1))
	}
	if !encodes(finest) || encodes(finest+1) {
		t.Fatalf("codec: %d x %d encodes = %v, %d x %d encodes = %v; want true, false",
			finest, finest, encodes(finest), finest+1, finest+1, encodes(finest+1))
	}
	for _, n := range []int{math.MaxInt, math.MaxInt32, 1 << 20, 4096} {
		if densityFits(n) {
			t.Errorf("densityFits(%d) = true", n)
		}
	}
}

// TestDensityRefusedBeforeComputing: a density request whose grid
// cannot fit one frame used to be computed in full (n² float64s) and
// only then replaced by response_too_large, so a single request could
// allocate without bound. It is now refused with the same error before
// the framework runs, and the connection keeps serving.
func TestDensityRefusedBeforeComputing(t *testing.T) {
	cl := dial(t, startServer(t))
	if _, err := cl.Density(ctx, 8); err != nil {
		t.Fatalf("warm-up density: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cl.Density(ctx, 4096)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("density 4096 = %v, want ErrResponseTooLarge", err)
	}
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeResponseTooLarge {
		t.Errorf("density 4096 = %v, want wire code %q", err, CodeResponseTooLarge)
	}
	// A computed 4096 x 4096 grid is 128 MiB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("refused density allocated %d bytes, want < 8 MiB", grew)
	}
	grid, err := cl.Density(ctx, 361)
	if err != nil || len(grid) != 361 {
		t.Fatalf("density 361: %d rows, %v", len(grid), err)
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Errorf("stats after the refused density: %v", err)
	}
}

// TestRangeRadiusMustBeFinite: range_public with a NaN radius used to
// answer OK with an empty list on the region backends while geoind
// refused it. Both mechanisms now refuse a radius that is not finite
// and non-negative.
func TestRangeRadiusMustBeFinite(t *testing.T) {
	for _, backend := range []string{core.AdaptiveBackend, core.GeoIndBackend} {
		t.Run(backend, func(t *testing.T) {
			cl := serveObjects(t, backend, []server.PublicObject{
				{ID: 1, Pos: geom.Pt(100, 100)}, {ID: 2, Pos: geom.Pt(3000, 3000)},
			})
			if err := cl.Register(ctx, 1, 200, 200, 1, 0); err != nil {
				t.Fatal(err)
			}
			for _, r := range []float64{math.NaN(), math.Inf(1), -1} {
				if items, _, err := cl.RangePublic(ctx, 1, r); err == nil {
					t.Errorf("range_public radius %v answered %d objects, want an error", r, len(items))
				}
			}
			if items, _, err := cl.RangePublic(ctx, 1, 500); err != nil || len(items) != 1 {
				t.Errorf("range_public radius 500: %d objects, %v; want 1", len(items), err)
			}
		})
	}
}

// TestOversizedRangeIsWithheldByTheWriter keeps the writer's
// replacement path covered now that density is refused up front: a
// range answer listing every one of 20,000 named objects exceeds one
// frame, costs its request a response_too_large error, and leaves the
// connection serving.
func TestOversizedRangeIsWithheldByTheWriter(t *testing.T) {
	objs := make([]server.PublicObject, 20000)
	for i := range objs {
		objs[i] = server.PublicObject{
			ID:   int64(i),
			Pos:  geom.Pt(float64(i%200)*20.48+0.3, float64(i/200)*40.96+0.7),
			Name: strings.Repeat("n", 40) + string(rune('a'+i%26)),
		}
	}
	cl := serveObjects(t, core.AdaptiveBackend, objs)
	if err := cl.Register(ctx, 1, 2048, 2048, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.RangePublic(ctx, 1, 10000); !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("range over every object = %v, want ErrResponseTooLarge", err)
	}
	if items, _, err := cl.RangePublic(ctx, 1, 50); err != nil || len(items) == 0 {
		t.Errorf("small range after the withheld one: %d objects, %v", len(items), err)
	}
}

// serveObjects starts a protocol server over a fresh 4,096 m instance
// of backend holding objs as its public table and returns a client
// dialed to it.
func serveObjects(t *testing.T, backend string, objs []server.PublicObject) *Client {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Universe = geom.R(0, 0, 4096, 4096)
	cfg.PyramidLevels = 7
	cfg.Backend = backend
	c := core.MustNew(cfg)
	if err := c.LoadPublicObjects(objs); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c)
	srv.SetLogger(quietLogger())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return dial(t, addr.String())
}
