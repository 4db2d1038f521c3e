package privacyqp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp/privacyqptest"
	"casper/internal/rtree"
)

// checkExact runs Algorithm 2 and the exact step at cloak and checks
// the list against the reference and against the true nearest target
// of a dense grid of cloak points. It returns the lengths of Algorithm 2's list and of the exact one.
func checkExact(t *testing.T, all []rtree.Item, cloak geom.Rect) (int, int) {
	t.Helper()
	res, err := PrivateNN(rtree.BulkLoad(slices.Clone(all)), cloak, PublicData, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := exactNN(cloak, res.Candidates)
	if len(got) != cap(got) {
		t.Fatalf("cloak %v: the exact list has length %d and capacity %d", cloak, len(got), cap(got))
	}
	gotIDs := map[int64]bool{}
	for _, it := range got {
		gotIDs[it.ID] = true
	}
	if want := privacyqptest.ExactNN(all, cloak); !sameIDSet(gotIDs, want) {
		var extra, missing []int64
		for id := range gotIDs {
			if !want[id] {
				extra = append(extra, id)
			}
		}
		for id := range want {
			if !gotIDs[id] {
				missing = append(missing, id)
			}
		}
		t.Fatalf("cloak %v: exact list of %d from Algorithm 2's %d: extra %v, missing %v (reference %d)",
			cloak, len(got), len(res.Candidates), extra, missing, len(want))
	}
	// The list is a subsequence of Algorithm 2's.
	j := 0
	for _, it := range res.Candidates {
		if j < len(got) && it.ID == got[j].ID {
			j++
		}
	}
	if j != len(got) {
		t.Fatalf("cloak %v: the exact list is not in Algorithm 2's order", cloak)
	}
	const n = 12
	for i := 0; i <= n; i++ {
		for k := 0; k <= n; k++ {
			p := geom.Pt(cloak.Min.X+cloak.Width()*float64(i)/n, cloak.Min.Y+cloak.Height()*float64(k)/n)
			if nearestD2(p, got) != nearestD2(p, all) {
				t.Fatalf("cloak %v: the nearest target of %v is missing from the exact list", cloak, p)
			}
		}
	}
	return len(res.Candidates), len(got)
}

// exactNN runs the exact step on list with a pooled arena.
func exactNN(cloak geom.Rect, list []rtree.Item) []rtree.Item {
	sc := getScratch()
	defer putScratch(sc)
	return exactInto(sc, cloak, list, nil)
}

func nearestD2(p geom.Point, items []rtree.Item) float64 {
	best := math.Inf(1)
	for _, it := range items {
		best = math.Min(best, p.Dist2(it.Rect.Min))
	}
	return best
}

func sameIDSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

func pointItems(pts []geom.Point) []rtree.Item {
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)}
	}
	return items
}

// TestExactNNMatchesVoronoiReference: on seeded uniform, clustered and
// grid-snapped worlds the exact step keeps exactly the targets whose
// closed Voronoi cell over the whole table meets the cloak. The
// grid-snapped worlds have integer coordinates, so duplicate sites,
// collinear sites, sites on cloak edges and corners, and Voronoi
// vertices on an edge all occur, and every tie is exact on both sides.
// Point cloaks, zero-width cloaks and a table of one target are
// included.
func TestExactNNMatchesVoronoiReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const small = 1000.0
	sq := geom.R(0, 0, small, small)
	uniform := make([]geom.Point, 60)
	for i := range uniform {
		uniform[i] = samplePt(rng, sq)
	}
	var clustered []geom.Point
	for c := 0; c < 5; c++ {
		center := samplePt(rng, sq)
		for i := 0; i < 14; i++ {
			clustered = append(clustered, geom.Pt(center.X+rng.NormFloat64()*40, center.Y+rng.NormFloat64()*40))
		}
	}
	const grid = 24
	var snapped []geom.Point
	for i := 0; i < 70; i++ {
		snapped = append(snapped, geom.Pt(float64(rng.Intn(grid+1)), float64(rng.Intn(grid+1))))
	}
	for i := 0; i < 6; i++ { // a row of collinear sites and exact duplicates
		snapped = append(snapped, geom.Pt(float64(4*i), 12), snapped[i])
	}
	snappedCloak := func() geom.Rect {
		x0, y0 := rng.Intn(grid), rng.Intn(grid)
		return geom.R(float64(x0), float64(y0), float64(x0+rng.Intn(grid/2)), float64(y0+rng.Intn(grid/2)))
	}
	floatCloak := func() geom.Rect {
		p := samplePt(rng, sq)
		return geom.R(p.X, p.Y, p.X+rng.Float64()*300, p.Y+rng.Float64()*300)
	}
	worlds := []struct {
		name  string
		pts   []geom.Point
		cloak func() geom.Rect
	}{
		{"uniform", uniform, floatCloak},
		{"clustered", clustered, floatCloak},
		{"snapped", snapped, snappedCloak},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			all := pointItems(w.pts)
			cloaks := []geom.Rect{
				geom.Rect{Min: w.pts[0], Max: w.pts[0]},                    // a point cloak on a site
				geom.Rect{Min: w.pts[1], Max: w.pts[1].Add(geom.Pt(0, 5))}, // zero width, from a site
				geom.RectFromPoints(w.pts[2], w.pts[3]),                    // sites on two corners
			}
			p := w.cloak().Min
			cloaks = append(cloaks, geom.Rect{Min: p, Max: p}) // a point cloak, mostly between sites
			for i := 0; i < 25; i++ {
				cloaks = append(cloaks, w.cloak())
			}
			shorter := 0
			for _, c := range cloaks {
				if a2, exact := checkExact(t, all, c); exact < a2 {
					shorter++
				}
			}
			if shorter == 0 {
				t.Fatal("the exact step never shortened Algorithm 2's list, so the check cannot tell them apart")
			}
		})
	}
	t.Run("one target", func(t *testing.T) {
		all := pointItems([]geom.Point{geom.Pt(7, 3)})
		for _, c := range []geom.Rect{geom.R(0, 0, 10, 10), geom.R(20, 20, 30, 40), geom.R(7, 3, 7, 3)} {
			if _, n := checkExact(t, all, c); n != 1 {
				t.Fatalf("cloak %v: %d targets from a table of one", c, n)
			}
		}
	})
}

// TestExactNNKeepsBreakpointTies: a Voronoi vertex on a cloak edge. At
// (1, 0) on the bottom edge of [0,2]x[0,2] the sites (-2, 4), (4, 4)
// and (1, -5) are all 5 away; (1, -5) is nearest nowhere else in the
// cloak, so only a walk that keeps every site tied at a breakpoint
// keeps it.
func TestExactNNKeepsBreakpointTies(t *testing.T) {
	all := pointItems([]geom.Point{geom.Pt(-2, 4), geom.Pt(4, 4), geom.Pt(1, -5), geom.Pt(1, -9)})
	cloak := geom.R(0, 0, 2, 2)
	got := exactNN(cloak, all)
	ids := map[int64]bool{}
	for _, it := range got {
		ids[it.ID] = true
	}
	if want := map[int64]bool{0: true, 1: true, 2: true}; !sameIDSet(ids, want) {
		t.Fatalf("exact list %v, want the three sites tied at (1, 0)", ids)
	}
	if ref := privacyqptest.ExactNN(all, cloak); !sameIDSet(ids, ref) {
		t.Fatalf("exact list %v, reference %v", ids, ref)
	}
}

// BenchmarkExactNNPublic is the exact step alone over an Algorithm 2
// list of about 36 candidates (uniform targets; the list of the
// median cloak of the loop is reported as a2/op, the exact list as
// exact/op). make bench-allocs gates it at one allocation: the
// exact-size result.
func BenchmarkExactNNPublic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := pointDB(rng, 20000)
	type query struct {
		cloak geom.Rect
		list  []rtree.Item
	}
	var qs []query
	for len(qs) < 64 {
		c := randCloak(rng, 300)
		res, err := PrivateNN(db, c, PublicData, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if n := len(res.Candidates); n >= 30 && n <= 42 {
			qs = append(qs, query{c, res.Candidates})
		}
	}
	var a2, exact int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		out := exactNN(q.cloak, q.list)
		a2, exact = a2+len(q.list), exact+len(out)
	}
	b.ReportMetric(float64(a2)/float64(b.N), "a2/op")
	b.ReportMetric(float64(exact)/float64(b.N), "exact/op")
}
