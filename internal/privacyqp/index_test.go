package privacyqp_test

// Index-independence tests: the paper claims the privacy-aware query
// processor works unchanged over any spatial access method
// (Sec. 5.1.1). These tests run every query type over the same data
// stored in an R-tree and in a uniform grid index and require
// *identical* answers.

import (
	"math/rand"
	"sort"
	"testing"

	"casper/internal/geom"
	"casper/internal/gridindex"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

var world = geom.R(0, 0, 10000, 10000)

// bothIndexes loads the same items into both index implementations.
func bothIndexes(items []rtree.Item) (privacyqp.SpatialIndex, privacyqp.SpatialIndex) {
	tr := rtree.New()
	gr := gridindex.New(world, 32)
	for _, it := range items {
		tr.Insert(it)
		gr.Insert(it)
	}
	return tr, gr
}

func candidateIDs(res privacyqp.Result) []int64 {
	ids := make([]int64, len(res.Candidates))
	for i, c := range res.Candidates {
		ids[i] = c.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPrivateNNIndexIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []privacyqp.DataKind{privacyqp.PublicData, privacyqp.PrivateData} {
		var items []rtree.Item
		for i := 0; i < 800; i++ {
			x, y := rng.Float64()*9500, rng.Float64()*9500
			r := geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x, y)}
			if kind == privacyqp.PrivateData {
				r = geom.R(x, y, x+rng.Float64()*400, y+rng.Float64()*400).ClipTo(world)
			}
			items = append(items, rtree.Item{Rect: r, ID: int64(i)})
		}
		tr, gr := bothIndexes(items)
		for trial := 0; trial < 40; trial++ {
			cx, cy := rng.Float64()*9000, rng.Float64()*9000
			cloak := geom.R(cx, cy, cx+rng.Float64()*800, cy+rng.Float64()*800).ClipTo(world)
			for _, f := range []int{1, 2, 4} {
				opt := privacyqp.Options{Filters: f}
				a, err := privacyqp.PrivateNN(tr, cloak, kind, opt)
				if err != nil {
					t.Fatal(err)
				}
				b, err := privacyqp.PrivateNN(gr, cloak, kind, opt)
				if err != nil {
					t.Fatal(err)
				}
				// A_EXT can differ only through filter tie-breaks;
				// the candidate ID sets must still agree because both
				// A_EXT rectangles are minimal over equivalent filter
				// distances. Compare sets strictly.
				if !sameIDs(candidateIDs(a), candidateIDs(b)) {
					t.Fatalf("kind=%v filters=%d trial=%d: rtree %v != grid %v",
						kind, f, trial, candidateIDs(a), candidateIDs(b))
				}
			}
		}
	}
}

func TestRangeAndCountIndexIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var items []rtree.Item
	for i := 0; i < 1000; i++ {
		x, y := rng.Float64()*9500, rng.Float64()*9500
		items = append(items, rtree.Item{
			Rect: geom.R(x, y, x+rng.Float64()*300, y+rng.Float64()*300).ClipTo(world),
			ID:   int64(i),
		})
	}
	tr, gr := bothIndexes(items)
	for trial := 0; trial < 60; trial++ {
		cx, cy := rng.Float64()*9000, rng.Float64()*9000
		r := geom.R(cx, cy, cx+rng.Float64()*2000, cy+rng.Float64()*2000).ClipTo(world)
		for _, policy := range []privacyqp.CountPolicy{
			privacyqp.CountAnyOverlap, privacyqp.CountCenterIn, privacyqp.CountFractional,
		} {
			a, err := privacyqp.PublicRangeCount(tr, r, policy)
			if err != nil {
				t.Fatal(err)
			}
			b, err := privacyqp.PublicRangeCount(gr, r, policy)
			if err != nil {
				t.Fatal(err)
			}
			if diff := a - b; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("policy %v trial %d: rtree %v != grid %v", policy, trial, a, b)
			}
		}
		ra, err := privacyqp.PrivateRange(tr, r, 500, privacyqp.PrivateData)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := privacyqp.PrivateRange(gr, r, 500, privacyqp.PrivateData)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(candidateIDs(ra), candidateIDs(rb)) {
			t.Fatalf("trial %d: PrivateRange disagrees", trial)
		}
	}
}

func TestNaiveAllIndexIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var items []rtree.Item
	for i := 0; i < 300; i++ {
		p := geom.Pt(rng.Float64()*9000, rng.Float64()*9000)
		items = append(items, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)})
	}
	tr, gr := bothIndexes(items)
	a, b := privacyqp.NaiveAll(tr), privacyqp.NaiveAll(gr)
	if len(a) != 300 || len(b) != 300 {
		t.Fatalf("All sizes: %d, %d", len(a), len(b))
	}
}

// linearKNN is the k-NN oracle: every item measured, sorted by
// (distance, ID), first k kept.
func linearKNN(items []rtree.Item, q geom.Point, k int, m rtree.Metric) []rtree.Neighbor {
	ns := make([]rtree.Neighbor, 0, len(items))
	for _, it := range items {
		ns = append(ns, rtree.Neighbor{Item: it, Dist: m.DistTo(q, it.Rect)})
	}
	sort.Slice(ns, func(i, j int) bool {
		a, b := ns[i], ns[j]
		return a.Dist < b.Dist || a.Dist == b.Dist && a.Item.ID < b.Item.ID
	})
	return ns[:min(k, len(ns))]
}

// snappedRect returns a cloak-shaped rectangle: an aligned block of 1,
// 2 or 4 cells of a 16×16 grid over world, so many items share one
// rectangle, as users sharing a pyramid cell share one stored cloak.
func snappedRect(rng *rand.Rand) geom.Rect {
	const cell = 625
	side := []float64{1, 2, 4}[rng.Intn(3)]
	n := int(16 / side)
	x, y := float64(rng.Intn(n))*side*cell, float64(rng.Intn(n))*side*cell
	return geom.R(x, y, x+side*cell, y+side*cell)
}

// TestNearestKMatchesLinearOracle checks the k-NN primitive of every
// index against a linear (distance, ID) sort of its items, ties
// included: the R-tree (inserted and bulk loaded, NearestK and
// NearestKInto with reused scratch), the grid, and each of them behind
// Without. Grid-snapped data makes ties the common case: duplicate
// rectangles tie under both metrics, and a query point inside several
// of them ties them all at min-dist zero.
func TestNearestKMatchesLinearOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, data := range []string{"random", "snapped"} {
		items := make([]rtree.Item, 1500)
		ids := rng.Perm(len(items)) // unique, unrelated to insertion order
		for i := range items {
			r := snappedRect(rng)
			if data == "random" {
				x, y := rng.Float64()*9500, rng.Float64()*9500
				r = geom.R(x, y, x+rng.Float64()*400, y+rng.Float64()*400)
			}
			items[i] = rtree.Item{Rect: r, ID: int64(ids[i])}
		}
		ins, gr := bothIndexes(items)
		bulk := rtree.BulkLoadWithCapacity(append([]rtree.Item(nil), items...), 8)
		h, out := &rtree.NNHeap{}, []rtree.Neighbor(nil)
		for trial := 0; trial < 150; trial++ {
			q := geom.Pt(rng.Float64()*11000-500, rng.Float64()*11000-500)
			if trial%2 == 0 { // a grid vertex: equidistant from its cells
				q = geom.Pt(float64(rng.Intn(17))*625, float64(rng.Intn(17))*625)
			}
			k := 1 + rng.Intn(16)
			m := []rtree.Metric{rtree.MinDist, rtree.MaxDist}[trial%4/2]
			hide := items[rng.Intn(len(items))].ID
			want := linearKNN(items, q, k, m)
			var wantHidden []rtree.Neighbor
			for _, n := range linearKNN(items, q, k+1, m) {
				if n.Item.ID != hide && len(wantHidden) < k {
					wantHidden = append(wantHidden, n)
				}
			}
			check := func(name string, got, want []rtree.Neighbor) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s %s trial %d k=%d metric %v: %d neighbors, want %d", data, name, trial, k, m, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %s trial %d k=%d metric %v rank %d: %+v, want %+v", data, name, trial, k, m, i, got[i], want[i])
					}
				}
			}
			for _, ix := range []struct {
				name string
				db   privacyqp.SpatialIndex
			}{{"inserted", ins}, {"bulk", bulk}, {"grid", gr}} {
				out = ix.db.NearestKInto(q, k, m, h, out)
				check(ix.name+" NearestKInto", out, want)
				out = privacyqp.Without(ix.db, hide).NearestKInto(q, k, m, h, out)
				check(ix.name+" Without", out, wantHidden)
			}
			check("NearestK", bulk.NearestK(q, k, m), want)
		}
	}
}
