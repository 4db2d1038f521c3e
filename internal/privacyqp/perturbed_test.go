package privacyqp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"casper/internal/geom"
	"casper/internal/rtree"
)

// sampleDisc draws a point uniformly from the disc of the given radius
// around center. The point may leave the world: the inclusiveness
// property only depends on |p - center| <= radius.
func sampleDisc(rng *rand.Rand, center geom.Point, radius float64) geom.Point {
	theta := rng.Float64() * 2 * math.Pi
	r := radius * math.Sqrt(rng.Float64())
	return geom.Pt(center.X+r*math.Cos(theta), center.Y+r*math.Sin(theta))
}

func TestPerturbedValidation(t *testing.T) {
	db := pointDB(rand.New(rand.NewSource(1)), 20)
	q := geom.Pt(100, 100)
	for _, bad := range []float64{-1, math.NaN()} {
		if _, err := PerturbedKNN(db, q, bad, 1, PublicData, Options{}); err == nil {
			t.Errorf("PerturbedKNN k=1 radius=%v accepted", bad)
		}
		if _, err := PerturbedKNN(db, q, bad, 3, PublicData, Options{}); err == nil {
			t.Errorf("PerturbedKNN radius=%v accepted", bad)
		}
		if _, err := PerturbedRange(db, q, bad, 50, PublicData); err == nil {
			t.Errorf("PerturbedRange radius=%v accepted", bad)
		}
		if _, err := PerturbedRange(db, q, 10, bad, PublicData); err == nil {
			t.Errorf("PerturbedRange queryRadius=%v accepted", bad)
		}
	}
	if _, err := PerturbedKNN(db, q, 10, 0, PublicData, Options{}); err == nil {
		t.Error("PerturbedKNN k=0 accepted")
	}
	if _, err := PerturbedKNN(db, q, 10, 21, PublicData, Options{}); err == nil {
		t.Error("PerturbedKNN k beyond DB size accepted")
	}
	if _, err := PerturbedKNN(db, q, 10, 1, PublicData, Options{MinOverlap: 2}); err == nil {
		t.Error("PerturbedKNN k=1 invalid MinOverlap accepted")
	}
	empty := rtree.BulkLoad(nil)
	if _, err := PerturbedKNN(empty, q, 10, 1, PublicData, Options{}); err == nil {
		t.Error("PerturbedKNN k=1 on empty DB accepted")
	}
	if _, err := PerturbedKNN(empty, q, 10, 3, PublicData, Options{}); err == nil {
		t.Error("PerturbedKNN k=3 on empty DB accepted")
	}
}

// TestPerturbedNNInclusive is the correctness property from the
// triangle-inequality construction: for EVERY true position within
// radius of the noisy point, the exact nearest target is a candidate.
func TestPerturbedNNInclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := pointDB(rng, 400)
	for trial := 0; trial < 200; trial++ {
		q := samplePt(rng, world)
		radius := rng.Float64() * 400
		res, err := PerturbedKNN(db, q, radius, 1, PublicData, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NNSearches != 1 {
			t.Fatalf("NNSearches = %d, want exactly 1", res.NNSearches)
		}
		if len(res.Filters) != 1 {
			t.Fatalf("Filters = %d items, want 1", len(res.Filters))
		}
		cands := candSet(res)
		for probe := 0; probe < 20; probe++ {
			p := sampleDisc(rng, q, radius)
			nn := bruteNearest(db, p)
			if !cands[nn] {
				t.Fatalf("true pos %v (noisy %v, r=%v): exact NN %d missing from %d candidates",
					p, q, radius, nn, len(cands))
			}
		}
	}
}

// TestPerturbedKNNInclusive extends the property to k-NN: all k exact
// nearest targets of every true position must be candidates.
func TestPerturbedKNNInclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := pointDB(rng, 400)
	for trial := 0; trial < 100; trial++ {
		q := samplePt(rng, world)
		radius := rng.Float64() * 300
		k := 1 + rng.Intn(8)
		res, err := PerturbedKNN(db, q, radius, k, PublicData, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Filters) != k {
			t.Fatalf("Filters = %d items, want k=%d", len(res.Filters), k)
		}
		cands := candSet(res)
		for probe := 0; probe < 10; probe++ {
			p := sampleDisc(rng, q, radius)
			for _, id := range bruteNearestK(db, p, k) {
				if !cands[id] {
					t.Fatalf("true pos %v (noisy %v, r=%v, k=%d): exact neighbor %d missing",
						p, q, radius, k, id)
				}
			}
		}
	}
}

// TestPerturbedRangeInclusive: every target within queryRadius of any
// true position in the disc must be a candidate.
func TestPerturbedRangeInclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := pointDB(rng, 400)
	for trial := 0; trial < 100; trial++ {
		q := samplePt(rng, world)
		radius := rng.Float64() * 300
		queryRadius := rng.Float64() * 500
		res, err := PerturbedRange(db, q, radius, queryRadius, PublicData)
		if err != nil {
			t.Fatal(err)
		}
		cands := candSet(res)
		for probe := 0; probe < 10; probe++ {
			p := sampleDisc(rng, q, radius)
			db.SearchFunc(world, func(it rtree.Item) bool {
				if p.Dist(it.Rect.Min) <= queryRadius && !cands[it.ID] {
					t.Fatalf("target %d within %v of true pos %v missing from candidates",
						it.ID, queryRadius, p)
				}
				return true
			})
		}
	}
}

// TestPerturbedZeroRadius pins the degenerate case: radius 0 means the
// released point IS the true position, and the candidate list must
// still contain its exact nearest target.
func TestPerturbedZeroRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := pointDB(rng, 200)
	for trial := 0; trial < 50; trial++ {
		q := samplePt(rng, world)
		res, err := PerturbedKNN(db, q, 0, 1, PublicData, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if nn := bruteNearest(db, q); !candSet(res)[nn] {
			t.Fatalf("radius 0: exact NN %d missing", nn)
		}
	}
}

// TestPerturbedNNPrivateData: with cloaked (rectangular) targets, the
// candidate list must contain every target that could be the nearest
// for some realization of both the querier's position and the targets'
// positions; spot-check with targets collapsed at known corners.
func TestPerturbedNNPrivateData(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := rectDB(rng, 300, 400)
	for trial := 0; trial < 100; trial++ {
		q := samplePt(rng, world)
		radius := rng.Float64() * 300
		res, err := PerturbedKNN(db, q, radius, 1, PrivateData, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cands := candSet(res)
		for probe := 0; probe < 10; probe++ {
			p := sampleDisc(rng, q, radius)
			// Pessimistic realization: every target sits at its rect's
			// corner furthest from p. The target whose furthest corner
			// is nearest could be p's true NN, so it must be listed.
			best, bestID := math.Inf(1), int64(-1)
			db.SearchFunc(world, func(it rtree.Item) bool {
				if d := p.MaxDistRect(it.Rect); d < best {
					best, bestID = d, it.ID
				}
				return true
			})
			if !cands[bestID] {
				t.Fatalf("private targets, true pos %v: worst-case NN %d missing", p, bestID)
			}
		}
	}
}

// TestPerturbedAExtShape: A_EXT is the square circumscribing the
// candidate circle, centered at the noisy point.
func TestPerturbedAExtShape(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := pointDB(rng, 200)
	q := geom.Pt(5000, 5000)
	res, err := PerturbedKNN(db, q, 100, 1, PublicData, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cx := (res.AExt.Min.X + res.AExt.Max.X) / 2; math.Abs(cx-q.X) > 1e-9 {
		t.Fatalf("AExt not centered on the noisy point: %v", res.AExt)
	}
	if w, h := res.AExt.Width(), res.AExt.Height(); math.Abs(w-h) > 1e-9 {
		t.Fatalf("AExt not square: %v x %v", w, h)
	}
	// Growing the confidence radius grows the candidate area.
	wide, err := PerturbedKNN(db, q, 500, 1, PublicData, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wide.AExt.Area() <= res.AExt.Area() {
		t.Fatalf("larger radius did not grow AExt: %v vs %v", wide.AExt, res.AExt)
	}
}

func candSet(res Result) map[int64]bool {
	s := make(map[int64]bool, len(res.Candidates))
	for _, it := range res.Candidates {
		s[it.ID] = true
	}
	return s
}

func bruteNearest(db *rtree.Tree, p geom.Point) int64 {
	best, id := math.Inf(1), int64(-1)
	db.SearchFunc(world, func(it rtree.Item) bool {
		if d := p.Dist(it.Rect.Min); d < best {
			best, id = d, it.ID
		}
		return true
	})
	return id
}

func bruteNearestK(db *rtree.Tree, p geom.Point, k int) []int64 {
	type nd struct {
		d  float64
		id int64
	}
	var all []nd
	db.SearchFunc(world, func(it rtree.Item) bool {
		all = append(all, nd{p.Dist(it.Rect.Min), it.ID})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	ids := make([]int64, 0, k)
	for i := 0; i < k && i < len(all); i++ {
		ids = append(ids, all[i].id)
	}
	return ids
}
