package privacyqp

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"casper/internal/geom"
	"casper/internal/rtree"
)

// fuzzTable encodes cloaked targets as the fuzz input does: x, y, w, h
// as little-endian uint16s, 8 bytes a target.
func fuzzTable(rects ...geom.Rect) []byte {
	var b []byte
	for _, r := range rects {
		for _, v := range []float64{r.Min.X, r.Min.Y, r.Width(), r.Height()} {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
	}
	return b
}

// FuzzPrivateNNInclusive checks Theorem 3 with the asker hidden: over a
// small private table, an optional asker whose own cloak is the query
// cloak, and points sampled in that cloak, the true nearest target
// other than the asker is always a candidate. Each target's true
// position is drawn inside its cloak; asker indexes the table, and any
// index outside it means no asker and a cloak drawn from seed.
func FuzzPrivateNNInclusive(f *testing.F) {
	// The probe: three k = 1 users 19 km apart on the diagonal of a
	// 40 km universe, cloaked in 78 m cells; user 0 asks.
	probe := fuzzTable(geom.R(1000, 1000, 1078, 1078), geom.R(20000, 20000, 20078, 20078),
		geom.R(39000, 39000, 39078, 39078))
	for filters := uint8(0); filters < 3; filters++ {
		f.Add(probe, int8(0), filters, int64(1))
	}
	f.Add(probe, int8(-1), uint8(2), int64(2))
	f.Add(fuzzTable(geom.R(500, 500, 600, 600)), int8(0), uint8(2), int64(3)) // a lone asker
	f.Fuzz(func(t *testing.T, table []byte, asker int8, filters uint8, seed int64) {
		var items []rtree.Item
		for i := 0; i+8 <= len(table) && len(items) < 32; i += 8 {
			u := func(j int) float64 { return float64(binary.LittleEndian.Uint16(table[i+j:])) }
			x, y := u(0), u(2)
			items = append(items, rtree.Item{ID: int64(len(items)), Rect: geom.R(x, y, x+float64(int(u(4))%4096), y+float64(int(u(6))%4096))})
		}
		rng := rand.New(rand.NewSource(seed))
		exclude := int64(-1)
		var cloak geom.Rect
		if int(asker) >= 0 && int(asker) < len(items) {
			exclude = int64(asker)
			cloak = items[asker].Rect
		} else {
			x, y := rng.Float64()*60000, rng.Float64()*60000
			cloak = geom.R(x, y, x+1+rng.Float64()*4096, y+1+rng.Float64()*4096)
		}
		opt := Options{Filters: []int{1, 2, 4}[filters%3]}

		res, err := PrivateNN(Without(rtree.BulkLoad(items), exclude), cloak, PrivateData, opt)
		others := len(items)
		if exclude >= 0 {
			others--
		}
		if others == 0 {
			if !errors.Is(err, ErrNoTargets) {
				t.Fatalf("no target but the asker: err = %v, want ErrNoTargets", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		truePos := make([]geom.Point, len(items))
		for i, it := range items {
			truePos[i] = samplePt(rng, it.Rect)
		}
		cand := map[int64]bool{}
		for _, c := range res.Candidates {
			if c.ID == exclude {
				t.Fatalf("the asker's own cloak is a candidate")
			}
			cand[c.ID] = true
		}
		corners := cloak.Corners()
		points := append(corners[:], cloak.Center())
		for i := 0; i < 8; i++ {
			points = append(points, samplePt(rng, cloak))
		}
		for _, p := range points {
			best, hit := -1.0, false
			for i, it := range items {
				if it.ID == exclude {
					continue
				}
				d := p.Dist(truePos[i])
				switch {
				case best < 0 || d < best:
					best, hit = d, cand[it.ID]
				case d == best:
					hit = hit || cand[it.ID]
				}
			}
			if !hit {
				t.Fatalf("at %v (asker %d, %d filters) no nearest other target among %d candidates",
					p, exclude, opt.Filters, len(res.Candidates))
			}
		}
	})
}
