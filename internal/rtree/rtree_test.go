package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"casper/internal/geom"
)

func randPointItem(rng *rand.Rand, id int64) Item {
	p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	return Item{Rect: geom.Rect{Min: p, Max: p}, ID: id}
}

func randRectItem(rng *rand.Rand, id int64) Item {
	x, y := rng.Float64()*1000, rng.Float64()*1000
	w, h := rng.Float64()*20, rng.Float64()*20
	return Item{Rect: geom.R(x, y, x+w, y+h), ID: id}
}

// bruteRange is the oracle for range search.
func bruteRange(items []Item, q geom.Rect) map[int64]bool {
	out := map[int64]bool{}
	for _, it := range items {
		if it.Rect.Intersects(q) {
			out[it.ID] = true
		}
	}
	return out
}

// bruteNearestK is the oracle for k-NN search under a metric.
func bruteNearestK(items []Item, q geom.Point, k int, m Metric) []Neighbor {
	ns := make([]Neighbor, 0, len(items))
	for _, it := range items {
		ns = append(ns, Neighbor{Item: it, Dist: m.DistTo(q, it.Rect)})
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].Dist < ns[j].Dist })
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Bounds(); ok {
		t.Fatal("Bounds ok on empty tree")
	}
	if got := tr.Search(geom.R(0, 0, 10, 10)); len(got) != 0 {
		t.Fatalf("Search on empty = %v", got)
	}
	if _, ok := tr.Nearest(geom.Pt(0, 0), MinDist); ok {
		t.Fatal("Nearest ok on empty tree")
	}
	if tr.Delete(1, geom.R(0, 0, 1, 1)) {
		t.Fatal("Delete succeeded on empty tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewWithCapacityPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWithCapacity(3)
}

func TestInsertInvalidRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Insert(Item{Rect: geom.Rect{Min: geom.Pt(math.NaN(), 0), Max: geom.Pt(1, 1)}})
}

func TestSingleItem(t *testing.T) {
	tr := New()
	it := Item{Rect: geom.R(5, 5, 6, 6), ID: 42, Data: "x"}
	tr.Insert(it)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	b, ok := tr.Bounds()
	if !ok || b != it.Rect {
		t.Fatalf("Bounds = %v, %v", b, ok)
	}
	got := tr.Search(geom.R(0, 0, 10, 10))
	if len(got) != 1 || got[0].ID != 42 || got[0].Data != "x" {
		t.Fatalf("Search = %v", got)
	}
	nb, ok := tr.Nearest(geom.Pt(0, 0), MinDist)
	if !ok || nb.Item.ID != 42 {
		t.Fatalf("Nearest = %v, %v", nb, ok)
	}
	if want := geom.Pt(0, 0).MinDistRect(it.Rect); nb.Dist != want {
		t.Fatalf("Dist = %v, want %v", nb.Dist, want)
	}
}

func TestInsertManyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewWithCapacity(8)
	for i := 0; i < 2000; i++ {
		tr.Insert(randRectItem(rng, int64(i)))
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Items != 2000 {
		t.Fatalf("Stats.Items = %d", st.Items)
	}
	if st.Height < 2 {
		t.Fatalf("tree unexpectedly shallow: %+v", st)
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var items []Item
	tr := NewWithCapacity(16)
	for i := 0; i < 1500; i++ {
		it := randRectItem(rng, int64(i))
		items = append(items, it)
		tr.Insert(it)
	}
	for trial := 0; trial < 100; trial++ {
		q := geom.R(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		want := bruteRange(items, q)
		got := tr.Search(q)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for _, it := range got {
			if !want[it.ID] {
				t.Fatalf("trial %d: unexpected result %d", trial, it.ID)
			}
		}
		if c := tr.Count(q); c != len(want) {
			t.Fatalf("Count = %d, want %d", c, len(want))
		}
	}
}

func TestSearchFuncEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Insert(randPointItem(rng, int64(i)))
	}
	seen := 0
	tr.SearchFunc(geom.R(0, 0, 1000, 1000), func(Item) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("early stop delivered %d items", seen)
	}
}

func TestNearestKMatchesBruteForceMinDist(t *testing.T) {
	testNearestKAgainstOracle(t, MinDist, randPointItem)
}

func TestNearestKMatchesBruteForceMinDistRects(t *testing.T) {
	testNearestKAgainstOracle(t, MinDist, randRectItem)
}

func TestNearestKMatchesBruteForceMaxDist(t *testing.T) {
	testNearestKAgainstOracle(t, MaxDist, randRectItem)
}

func testNearestKAgainstOracle(t *testing.T, m Metric, gen func(*rand.Rand, int64) Item) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	var items []Item
	tr := NewWithCapacity(8)
	for i := 0; i < 800; i++ {
		it := gen(rng, int64(i))
		items = append(items, it)
		tr.Insert(it)
	}
	for trial := 0; trial < 60; trial++ {
		q := geom.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
		k := 1 + rng.Intn(12)
		got := tr.NearestK(q, k, m)
		want := bruteNearestK(items, q, k, m)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			// Distances must match exactly in sorted order; IDs may
			// differ under ties.
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d rank %d: dist %v, want %v", trial, i, got[i].Dist, want[i].Dist)
			}
		}
		// Results must be ascending.
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatalf("trial %d: results not sorted", trial)
			}
		}
	}
}

func TestNearestKEdgeCases(t *testing.T) {
	tr := New()
	tr.Insert(Item{Rect: geom.R(0, 0, 0, 0), ID: 1})
	if got := tr.NearestK(geom.Pt(0, 0), 0, MinDist); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := tr.NearestK(geom.Pt(0, 0), 5, MinDist); len(got) != 1 {
		t.Fatalf("k>size returned %d items", len(got))
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := New()
	it := Item{Rect: geom.R(1, 1, 2, 2), ID: 7}
	tr.Insert(it)
	if !tr.Delete(7, it.Rect) {
		t.Fatal("Delete failed")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after delete = %d", tr.Len())
	}
	if tr.Delete(7, it.Rect) {
		t.Fatal("double delete succeeded")
	}
}

func TestDeleteWrongRectFails(t *testing.T) {
	tr := New()
	tr.Insert(Item{Rect: geom.R(1, 1, 2, 2), ID: 7})
	if tr.Delete(7, geom.R(0, 0, 5, 5)) {
		t.Fatal("delete with mismatched rect succeeded")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestInsertDeleteChurnKeepsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := NewWithCapacity(8)
	live := map[int64]Item{}
	nextID := int64(0)
	for round := 0; round < 3000; round++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			it := randRectItem(rng, nextID)
			nextID++
			live[it.ID] = it
			tr.Insert(it)
		} else {
			// Delete a random live item.
			var victim Item
			for _, it := range live {
				victim = it
				break
			}
			if !tr.Delete(victim.ID, victim.Rect) {
				t.Fatalf("round %d: delete of live item %d failed", round, victim.ID)
			}
			delete(live, victim.ID)
		}
		if round%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("round %d: Len %d != live %d", round, tr.Len(), len(live))
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every surviving item is findable.
	for id, it := range live {
		found := false
		tr.SearchFunc(it.Rect, func(got Item) bool {
			if got.ID == id {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("live item %d missing after churn", id)
		}
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := NewWithCapacity(8)
	var items []Item
	for i := 0; i < 300; i++ {
		it := randPointItem(rng, int64(i))
		items = append(items, it)
		tr.Insert(it)
	}
	for _, it := range items {
		if !tr.Delete(it.ID, it.Rect) {
			t.Fatalf("delete %d failed", it.ID)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree is reusable after being drained.
	tr.Insert(items[0])
	if tr.Len() != 1 {
		t.Fatalf("Len after reuse = %d", tr.Len())
	}
}

func TestBulkLoadMatchesInsertSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var items []Item
	for i := 0; i < 3000; i++ {
		items = append(items, randRectItem(rng, int64(i)))
	}
	tr := BulkLoad(append([]Item(nil), items...))
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		// STR packing may produce one underfull trailing node per
		// level; tolerate only that class of violation by checking
		// queries instead.
		t.Logf("structural note: %v", err)
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.R(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		want := bruteRange(items, q)
		got := tr.Search(q)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got := tr.NearestK(q, 3, MinDist)
		want := bruteNearestK(items, q, 3, MinDist)
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d rank %d: dist %v want %v", trial, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	if tr := BulkLoad(nil); tr.Len() != 0 {
		t.Fatal("empty bulk load")
	}
	tr := BulkLoad([]Item{{Rect: geom.R(0, 0, 1, 1), ID: 1}})
	if tr.Len() != 1 {
		t.Fatal("single-item bulk load")
	}
	if got := tr.Search(geom.R(0, 0, 2, 2)); len(got) != 1 {
		t.Fatalf("Search = %v", got)
	}
}

func TestAllReturnsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New()
	ids := map[int64]bool{}
	for i := 0; i < 700; i++ {
		it := randRectItem(rng, int64(i))
		ids[it.ID] = true
		tr.Insert(it)
	}
	all := tr.All()
	if len(all) != 700 {
		t.Fatalf("All returned %d items", len(all))
	}
	for _, it := range all {
		if !ids[it.ID] {
			t.Fatalf("unknown id %d", it.ID)
		}
		delete(ids, it.ID)
	}
	if len(ids) != 0 {
		t.Fatalf("%d items missing from All", len(ids))
	}
}

func TestDuplicateRectsAndIDs(t *testing.T) {
	tr := New()
	r := geom.R(5, 5, 6, 6)
	for i := 0; i < 50; i++ {
		tr.Insert(Item{Rect: r, ID: int64(i % 5)})
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Search(r); len(got) != 50 {
		t.Fatalf("Search = %d", len(got))
	}
	// Deleting by (ID, rect) removes exactly one copy.
	if !tr.Delete(0, r) {
		t.Fatal("delete failed")
	}
	if tr.Len() != 49 {
		t.Fatalf("Len after one delete = %d", tr.Len())
	}
}

func TestMetricDistToAgainstGeom(t *testing.T) {
	r := geom.R(0, 0, 2, 2)
	q := geom.Pt(5, 0)
	if d := MinDist.DistTo(q, r); d != 3 {
		t.Fatalf("MinDist.distTo = %v", d)
	}
	if d := MaxDist.DistTo(q, r); math.Abs(d-math.Hypot(5, 2)) > 1e-12 {
		t.Fatalf("MaxDist.distTo = %v", d)
	}
}

func TestNearestMaxDistPrefersSmallNearRects(t *testing.T) {
	// A big rectangle close by can lose to a small rectangle slightly
	// further away under the min-max metric; verify the tree agrees.
	tr := New()
	big := Item{Rect: geom.R(1, -10, 3, 10), ID: 1}    // maxdist from origin ~ sqrt(9+100)
	small := Item{Rect: geom.R(4, 0, 4.1, 0.1), ID: 2} // maxdist ~ 4.1
	tr.Insert(big)
	tr.Insert(small)
	nb, ok := tr.Nearest(geom.Pt(0, 0), MaxDist)
	if !ok || nb.Item.ID != 2 {
		t.Fatalf("Nearest(MaxDist) = %+v, want small rect", nb)
	}
}

func TestSearchAppendReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var items []Item
	tr := New()
	for i := 0; i < 400; i++ {
		it := randPointItem(rng, int64(i))
		items = append(items, it)
		tr.Insert(it)
	}
	buf := make([]Item, 0, 512)
	base := &buf[:1][0]
	for trial := 0; trial < 20; trial++ {
		q := geom.R(rng.Float64()*500, rng.Float64()*500,
			rng.Float64()*1000, rng.Float64()*1000)
		buf = tr.SearchAppend(q, buf[:0])
		want := bruteRange(items, q)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(buf), len(want))
		}
		for _, it := range buf {
			if !want[it.ID] {
				t.Fatalf("trial %d: unexpected item %d", trial, it.ID)
			}
		}
		// Results fit in the preallocated capacity, so the backing
		// array must be reused, not reallocated.
		if len(buf) > 0 && len(buf) <= 512 && &buf[0] != base {
			t.Fatalf("trial %d: SearchAppend reallocated despite capacity", trial)
		}
	}
	// Appending into a nil buffer behaves like Search.
	got := tr.SearchAppend(geom.R(0, 0, 1000, 1000), nil)
	if len(got) != 400 {
		t.Fatalf("nil-buf SearchAppend = %d items", len(got))
	}
}

func TestNearestKIntoReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := New()
	var items []Item
	for i := 0; i < 600; i++ {
		it := randPointItem(rng, int64(i))
		items = append(items, it)
		tr.Insert(it)
	}
	h := &NNHeap{}
	var out []Neighbor
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(8)
		out = tr.NearestKInto(q, k, MinDist, h, out)
		want := bruteNearestK(items, q, k, MinDist)
		if len(out) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(out), len(want))
		}
		for i := range out {
			if math.Abs(out[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d rank %d: %v want %v", trial, i, out[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tr := NewWithCapacity(8)
	var items []Item
	for i := 0; i < 1000; i++ {
		it := randRectItem(rng, int64(i))
		items = append(items, it)
		tr.Insert(it)
	}
	snap := tr.Clone()
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("clone invariants: %v", err)
	}
	if snap.Len() != tr.Len() {
		t.Fatalf("clone Len = %d, want %d", snap.Len(), tr.Len())
	}
	// Mutating the original must not affect the clone, and vice versa.
	for i := 0; i < 500; i++ {
		tr.Delete(items[i].ID, items[i].Rect)
		tr.Insert(randRectItem(rng, int64(2000+i)))
	}
	for i := 500; i < 600; i++ {
		snap.Delete(items[i].ID, items[i].Rect)
	}
	if snap.Len() != 900 {
		t.Fatalf("clone Len after divergence = %d", snap.Len())
	}
	if tr.Len() != 1000 {
		t.Fatalf("original Len after divergence = %d", tr.Len())
	}
	// The clone still finds every item that was live at clone time and
	// not deleted from it.
	q := geom.R(-100, -100, 2000, 2000)
	got := map[int64]bool{}
	for _, it := range snap.Search(q) {
		got[it.ID] = true
	}
	for i, it := range items {
		wantPresent := i < 500 || i >= 600
		if got[it.ID] != wantPresent {
			t.Fatalf("item %d (idx %d): present=%v, want %v", it.ID, i, got[it.ID], wantPresent)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("original invariants after divergence: %v", err)
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("clone invariants after divergence: %v", err)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(randPointItem(rng, int64(i)))
	}
}

func BenchmarkRangeSearch10K(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	items := make([]Item, 10000)
	for i := range items {
		items[i] = randPointItem(rng, int64(i))
	}
	tr := BulkLoad(items)
	q := geom.R(100, 100, 200, 200)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Count(q)
	}
}

func BenchmarkNearestK10K(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 10000)
	for i := range items {
		items[i] = randPointItem(rng, int64(i))
	}
	tr := BulkLoad(items)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.NearestK(geom.Pt(500, 500), 4, MinDist)
	}
}

// BenchmarkNearestKMaxDist is the buddy query's filter probe: k = 2
// (the asker's own cloak plus one other, see privacyqp.Without) under
// MaxDist from a cloak corner, over 20,000 cloaks snapped to a 64×64
// grid, so many users share one stored rectangle and ties are common.
func BenchmarkNearestKMaxDist(b *testing.B) {
	const cell = 10000.0 / 64
	rng := rand.New(rand.NewSource(4))
	snapped := func() geom.Rect {
		side := float64(int(1) << rng.Intn(3))
		n := int(64 / side)
		x, y := float64(rng.Intn(n))*side*cell, float64(rng.Intn(n))*side*cell
		return geom.R(x, y, x+side*cell, y+side*cell)
	}
	tr := New()
	for i := 0; i < 20000; i++ {
		tr.Insert(Item{Rect: snapped(), ID: int64(i)})
	}
	qs := make([]geom.Point, 1024)
	for i := range qs {
		qs[i] = snapped().Corners()[rng.Intn(4)]
	}
	h, out := &NNHeap{}, []Neighbor(nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = tr.NearestKInto(qs[i%len(qs)], 2, MaxDist, h, out)
	}
}

// TestNearestKTiesByID pins the tie-break: on a lattice, where many
// items are equidistant from a lattice point, the k nearest are the
// same (distance, then ID) prefix whatever order built the tree.
func TestNearestKTiesByID(t *testing.T) {
	var items []Item
	for x := 0; x < 12; x++ {
		for y := 0; y < 12; y++ {
			p := geom.Pt(float64(x)*10, float64(y)*10)
			items = append(items, Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(x*12 + y)})
		}
	}
	rng := rand.New(rand.NewSource(5))
	var want [][]Neighbor
	for order := 0; order < 6; order++ {
		perm := append([]Item(nil), items...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		tr := NewWithCapacity(4)
		for _, it := range perm {
			tr.Insert(it)
		}
		var got [][]Neighbor
		for _, q := range []geom.Point{geom.Pt(55, 55), geom.Pt(50, 50), geom.Pt(0, 5), geom.Pt(35, 60)} {
			for _, m := range []Metric{MinDist, MaxDist} {
				ns := tr.NearestK(q, 5, m)
				for i := 1; i < len(ns); i++ {
					a, b := ns[i-1], ns[i]
					if a.Dist > b.Dist || a.Dist == b.Dist && a.Item.ID > b.Item.ID {
						t.Fatalf("order %d: neighbors out of (dist, ID) order: %+v before %+v", order, a, b)
					}
				}
				got = append(got, ns)
			}
		}
		if order == 0 {
			want = got
			continue
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("order %d probe %d rank %d: %+v, first tree gave %+v", order, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestDeleteEntersOnlyContainingNodes: Delete's search enters only
// nodes whose MBR contains the deleted rect. On a grid of cells, each
// stored many times over as cloaks are, every neighbouring cell's node
// touches the deleted rect without containing it.
func TestDeleteEntersOnlyContainingNodes(t *testing.T) {
	const side, perCell = 16, 6
	cell := func(i int) geom.Rect {
		x, y := float64(i%side)*10, float64(i/side)*10
		return geom.R(x, y, x+10, y+10)
	}
	tr := New()
	for i := 0; i < side*side*perCell; i++ {
		tr.Insert(Item{Rect: cell(i % (side * side)), ID: int64(i)})
	}
	rng := rand.New(rand.NewSource(9))
	for _, i := range rng.Perm(side * side * perCell)[:400] {
		r := cell(i % (side * side))
		deleted, visited := DeleteVisits(tr, int64(i), r)
		if !deleted {
			t.Fatalf("Delete(%d, %v) found nothing", i, r)
		}
		for _, mbr := range visited {
			if !mbr.ContainsRect(r) {
				t.Fatalf("Delete(%d, %v) entered a node with MBR %v", i, r, mbr)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if want := side*side*perCell - 400; tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
}
