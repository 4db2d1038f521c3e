package privacyqp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"casper/internal/geom"
	"casper/internal/rtree"
)

var world = geom.R(0, 0, 10000, 10000)

func pointDB(rng *rand.Rand, n int) *rtree.Tree {
	items := make([]rtree.Item, n)
	for i := range items {
		p := geom.Pt(rng.Float64()*world.Width(), rng.Float64()*world.Height())
		items[i] = rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)}
	}
	return rtree.BulkLoad(items)
}

func rectDB(rng *rand.Rand, n int, maxSide float64) *rtree.Tree {
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64()*world.Width(), rng.Float64()*world.Height()
		w, h := rng.Float64()*maxSide, rng.Float64()*maxSide
		items[i] = rtree.Item{Rect: geom.R(x, y, x+w, y+h).ClipTo(world), ID: int64(i)}
	}
	return rtree.BulkLoad(items)
}

func randCloak(rng *rand.Rand, maxSide float64) geom.Rect {
	x, y := rng.Float64()*world.Width()*0.9, rng.Float64()*world.Height()*0.9
	return geom.R(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide).ClipTo(world)
}

func samplePt(rng *rand.Rand, r geom.Rect) geom.Point {
	return geom.Pt(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height())
}

func TestOptionsValidate(t *testing.T) {
	db := pointDB(rand.New(rand.NewSource(1)), 10)
	cloak := geom.R(10, 10, 20, 20)
	for _, opt := range []Options{
		{Filters: 0},
		{Filters: 3},
		{Filters: 5},
		{Filters: 4, MinOverlap: -0.1},
		{Filters: 4, MinOverlap: 1.1},
	} {
		if _, err := PrivateNN(db, cloak, PublicData, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}

// TestOptionsRejectNonFinite pins the NaN regression: a NaN MinOverlap
// compares false against everything, so the old `< 0 || > 1` check
// admitted it — and then every overlap comparison downstream was also
// false, silently emptying candidate lists that must stay inclusive.
func TestOptionsRejectNonFinite(t *testing.T) {
	db := pointDB(rand.New(rand.NewSource(1)), 10)
	cloak := geom.R(10, 10, 20, 20)
	for _, mo := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		opt := Options{Filters: 4, MinOverlap: mo}
		if _, err := PrivateNN(db, cloak, PrivateData, opt); err == nil {
			t.Errorf("MinOverlap=%v accepted", mo)
		}
	}
	// The boundary values stay legal.
	for _, mo := range []float64{0, 1} {
		opt := Options{Filters: 4, MinOverlap: mo}
		if _, err := PrivateNN(db, cloak, PrivateData, opt); err != nil {
			t.Errorf("MinOverlap=%v rejected: %v", mo, err)
		}
	}
}

func TestPrivateNNEmptyDB(t *testing.T) {
	if _, err := PrivateNN(rtree.New(), geom.R(0, 0, 1, 1), PublicData, DefaultOptions()); !errors.Is(err, ErrNoTargets) {
		t.Fatalf("err = %v", err)
	}
}

func TestPrivateNNInvalidCloak(t *testing.T) {
	db := pointDB(rand.New(rand.NewSource(1)), 10)
	bad := geom.Rect{Min: geom.Pt(math.NaN(), 0), Max: geom.Pt(1, 1)}
	if _, err := PrivateNN(db, bad, PublicData, DefaultOptions()); err == nil {
		t.Fatal("invalid cloak accepted")
	}
}

func TestNNSearchCounts(t *testing.T) {
	db := pointDB(rand.New(rand.NewSource(2)), 100)
	cloak := geom.R(4000, 4000, 5000, 5000)
	for _, f := range []int{1, 2, 4} {
		res, err := PrivateNN(db, cloak, PublicData, Options{Filters: f})
		if err != nil {
			t.Fatal(err)
		}
		if res.NNSearches != f {
			t.Errorf("filters=%d: NNSearches = %d", f, res.NNSearches)
		}
	}
}

func TestAExtContainsCloakAndFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := pointDB(rng, 500)
	for trial := 0; trial < 100; trial++ {
		cloak := randCloak(rng, 800)
		for _, f := range []int{1, 2, 4} {
			res, err := PrivateNN(db, cloak, PublicData, Options{Filters: f})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AExt.ContainsRect(cloak) {
				t.Fatalf("A_EXT %v does not contain cloak %v", res.AExt, cloak)
			}
			// Every filter object must itself be in the candidate list
			// (it is a feasible nearest neighbor for its vertex).
			for _, ft := range res.Filters {
				found := false
				for _, c := range res.Candidates {
					if c.ID == ft.ID {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("filters=%d trial=%d: filter %d missing from candidates", f, trial, ft.ID)
				}
			}
		}
	}
}

// TestInclusivenessPublic is the property behind Theorem 1: wherever
// the user actually is inside the cloak, her exact nearest target is
// in the candidate list — for all three filter variants.
func TestInclusivenessPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 150; trial++ {
		n := 20 + rng.Intn(300)
		db := pointDB(rng, n)
		all := db.All()
		cloak := randCloak(rng, 1500)
		for _, f := range []int{1, 2, 4} {
			res, err := PrivateNN(db, cloak, PublicData, Options{Filters: f})
			if err != nil {
				t.Fatal(err)
			}
			inCand := map[int64]bool{}
			for _, c := range res.Candidates {
				inCand[c.ID] = true
			}
			for probe := 0; probe < 25; probe++ {
				user := samplePt(rng, cloak)
				// Brute-force exact NN over the whole database.
				best, bd := int64(-1), math.MaxFloat64
				for _, it := range all {
					if d := user.Dist(it.Rect.Min); d < bd {
						best, bd = it.ID, d
					}
				}
				if !inCand[best] {
					t.Fatalf("filters=%d trial=%d: true NN %d of user %v missing from %d candidates (cloak %v)",
						f, trial, best, user, len(res.Candidates), cloak)
				}
			}
		}
	}
}

// TestInclusivenessPrivate is Theorem 3: targets are cloaked
// rectangles; wherever the user is in her cloak AND wherever each
// target actually is inside its own cloak, the user's exact nearest
// target is in the candidate list.
func TestInclusivenessPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 20 + rng.Intn(200)
		db := rectDB(rng, n, 600)
		all := db.All()
		cloak := randCloak(rng, 1200)
		for _, f := range []int{1, 2, 4} {
			res, err := PrivateNN(db, cloak, PrivateData, Options{Filters: f})
			if err != nil {
				t.Fatal(err)
			}
			inCand := map[int64]bool{}
			for _, c := range res.Candidates {
				inCand[c.ID] = true
			}
			for probe := 0; probe < 15; probe++ {
				user := samplePt(rng, cloak)
				// Sample a concrete "true" position for every target
				// inside its cloaked rectangle, then find the exact NN.
				best, bd := int64(-1), math.MaxFloat64
				for _, it := range all {
					truePos := samplePt(rng, it.Rect)
					if d := user.Dist(truePos); d < bd {
						best, bd = it.ID, d
					}
				}
				if !inCand[best] {
					t.Fatalf("filters=%d trial=%d: true NN %d missing from %d candidates",
						f, trial, best, len(res.Candidates))
				}
			}
		}
	}
}

func TestDegeneratePointCloak(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := pointDB(rng, 300)
	all := db.All()
	for trial := 0; trial < 50; trial++ {
		p := samplePt(rng, world)
		cloak := geom.Rect{Min: p, Max: p}
		res, err := PrivateNN(db, cloak, PublicData, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		best, bd := int64(-1), math.MaxFloat64
		for _, it := range all {
			if d := p.Dist(it.Rect.Min); d < bd {
				best, bd = it.ID, d
			}
		}
		found := false
		for _, c := range res.Candidates {
			if c.ID == best {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: point-cloak candidates miss the NN", trial)
		}
	}
}

func TestMoreFiltersShrinkCandidates(t *testing.T) {
	// The paper's Fig. 13/15 result: more filters give a (weakly)
	// smaller candidate list on average.
	rng := rand.New(rand.NewSource(7))
	db := pointDB(rng, 5000)
	var sum [5]float64
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		cloak := randCloak(rng, 1000)
		for _, f := range []int{1, 2, 4} {
			res, err := PrivateNN(db, cloak, PublicData, Options{Filters: f})
			if err != nil {
				t.Fatal(err)
			}
			sum[f] += float64(len(res.Candidates))
		}
	}
	// Four filters must clearly beat both cheaper variants; one and
	// two filters are statistically close (the two-filter middle-point
	// extensions roughly offset its tighter corner distances), so only
	// require two filters not to be materially worse.
	if !(sum[4] < sum[2]*0.9 && sum[4] < sum[1]*0.9) {
		t.Fatalf("four filters should shrink the candidate list: 1->%v 2->%v 4->%v",
			sum[1]/trials, sum[2]/trials, sum[4]/trials)
	}
	if sum[2] > sum[1]*1.15 {
		t.Fatalf("two filters materially worse than one: %v vs %v", sum[2]/trials, sum[1]/trials)
	}
}

func TestMinOverlapPolicyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := rectDB(rng, 2000, 500)
	cloak := randCloak(rng, 1000)
	prev := math.MaxInt
	for _, mo := range []float64{0, 0.25, 0.5, 0.9} {
		res, err := PrivateNN(db, cloak, PrivateData, Options{Filters: 4, MinOverlap: mo})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Candidates) > prev {
			t.Fatalf("MinOverlap=%v grew the candidate list: %d > %d", mo, len(res.Candidates), prev)
		}
		prev = len(res.Candidates)
	}
}

func TestRefineNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := pointDB(rng, 1000)
	for trial := 0; trial < 50; trial++ {
		cloak := randCloak(rng, 800)
		res, err := PrivateNN(db, cloak, PublicData, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		user := samplePt(rng, cloak)
		got, ok := RefineNN(user, res.Candidates, PublicData)
		if !ok {
			t.Fatal("empty candidates")
		}
		// The refined answer is the true global NN (inclusiveness +
		// local minimization).
		best, bd := int64(-1), math.MaxFloat64
		for _, it := range db.All() {
			if d := user.Dist(it.Rect.Min); d < bd {
				best, bd = it.ID, d
			}
		}
		if got.ID != best && user.Dist(got.Rect.Min) > bd+1e-9 {
			t.Fatalf("refined NN %d (d=%v) != true NN %d (d=%v)",
				got.ID, user.Dist(got.Rect.Min), best, bd)
		}
	}
	if _, ok := RefineNN(geom.Pt(0, 0), nil, PublicData); ok {
		t.Fatal("RefineNN on empty list returned ok")
	}
}

func TestPublicRangeCountPolicies(t *testing.T) {
	// Hand-built scenario: region [0,100]^2.
	// A: fully inside. B: half inside. C: touching corner only.
	// D: fully outside.
	items := []rtree.Item{
		{Rect: geom.R(10, 10, 30, 30), ID: 1},     // inside, frac 1
		{Rect: geom.R(80, 0, 120, 40), ID: 2},     // half in (frac 0.5), center on boundary x=100
		{Rect: geom.R(95, 95, 145, 145), ID: 3},   // small corner overlap (frac 0.01)
		{Rect: geom.R(200, 200, 220, 220), ID: 4}, // outside
	}
	db := rtree.BulkLoad(items)
	r := geom.R(0, 0, 100, 100)

	any, err := PublicRangeCount(db, r, CountAnyOverlap)
	if err != nil || any != 3 {
		t.Fatalf("any-overlap = %v, %v", any, err)
	}
	center, err := PublicRangeCount(db, r, CountCenterIn)
	if err != nil || center != 2 { // A and B (B's center (100,20) on boundary counts)
		t.Fatalf("center-in = %v, %v", center, err)
	}
	frac, err := PublicRangeCount(db, r, CountFractional)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + 0.5 + 0.01
	if math.Abs(frac-want) > 1e-9 {
		t.Fatalf("fractional = %v, want %v", frac, want)
	}
	if _, err := PublicRangeCount(db, geom.Rect{Min: geom.Pt(math.Inf(1), 0)}, CountAnyOverlap); err == nil {
		t.Fatal("invalid region accepted")
	}
}

func TestPublicRangeCountOrderings(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := rectDB(rng, 3000, 400)
	for trial := 0; trial < 50; trial++ {
		r := randCloak(rng, 3000)
		anyC, _ := PublicRangeCount(db, r, CountAnyOverlap)
		ctr, _ := PublicRangeCount(db, r, CountCenterIn)
		frac, _ := PublicRangeCount(db, r, CountFractional)
		if ctr > anyC || frac > anyC+1e-9 {
			t.Fatalf("policy ordering violated: any=%v center=%v frac=%v", anyC, ctr, frac)
		}
	}
}

func TestPublicRangeObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := rectDB(rng, 1000, 400)
	r := randCloak(rng, 2000)
	all, err := PublicRangeObjects(db, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := PublicRangeObjects(db, r, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) > len(all) {
		t.Fatal("minOverlap grew the result")
	}
	for _, it := range strict {
		if geom.OverlapFraction(it.Rect, r) < 0.8 {
			t.Fatalf("object %d admitted below threshold", it.ID)
		}
	}
	if _, err := PublicRangeObjects(db, r, 1.5); err == nil {
		t.Fatal("bad minOverlap accepted")
	}
}

func TestPrivateRangeInclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := pointDB(rng, 2000)
	all := db.All()
	for trial := 0; trial < 50; trial++ {
		cloak := randCloak(rng, 800)
		radius := 100 + rng.Float64()*900
		res, err := PrivateRange(db, cloak, radius, PublicData)
		if err != nil {
			t.Fatal(err)
		}
		inCand := map[int64]bool{}
		for _, c := range res.Candidates {
			inCand[c.ID] = true
		}
		for probe := 0; probe < 20; probe++ {
			user := samplePt(rng, cloak)
			for _, it := range all {
				if user.Dist(it.Rect.Min) <= radius && !inCand[it.ID] {
					t.Fatalf("target %d within radius of %v but not in candidates", it.ID, user)
				}
			}
			// Refinement returns exactly the true in-range set.
			got := RefineRange(user, res.Candidates, radius, PublicData)
			want := 0
			for _, it := range all {
				if user.Dist(it.Rect.Min) <= radius {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("refined range size %d, want %d", len(got), want)
			}
		}
	}
}

func TestPrivateRangeValidation(t *testing.T) {
	db := pointDB(rand.New(rand.NewSource(1)), 10)
	if _, err := PrivateRange(db, geom.R(0, 0, 1, 1), -1, PublicData); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestNaiveCenterNNCanBeWrong(t *testing.T) {
	// Construct the paper's Fig. 4b situation: the target nearest to
	// the center differs from the target nearest to the actual user.
	items := []rtree.Item{
		{Rect: geom.Rect{Min: geom.Pt(55, 50), Max: geom.Pt(55, 50)}, ID: 1}, // near center
		{Rect: geom.Rect{Min: geom.Pt(2, 2), Max: geom.Pt(2, 2)}, ID: 2},     // near the corner user
	}
	db := rtree.BulkLoad(items)
	cloak := geom.R(0, 0, 100, 100)
	user := geom.Pt(1, 1)

	naive, ok := NaiveCenterNN(db, cloak, PublicData)
	if !ok || naive.ID != 1 {
		t.Fatalf("naive answer = %+v", naive)
	}
	// The naive answer is wrong for this user...
	if user.Dist(naive.Rect.Min) < user.Dist(geom.Pt(2, 2)) {
		t.Fatal("scenario broken: naive answer accidentally correct")
	}
	// ...while the candidate list contains the right one.
	res, err := PrivateNN(db, cloak, PublicData, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := RefineNN(user, res.Candidates, PublicData)
	if got.ID != 2 {
		t.Fatalf("refined answer = %d, want 2", got.ID)
	}
}

func TestNaiveAllReturnsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := pointDB(rng, 321)
	if got := NaiveAll(db); len(got) != 321 {
		t.Fatalf("NaiveAll = %d items", len(got))
	}
}

func TestCandidateNeverEmptyOnNonEmptyDB(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		db := pointDB(rng, 1+rng.Intn(5)) // tiny databases
		cloak := randCloak(rng, 2000)
		for _, f := range []int{1, 2, 4} {
			res, err := PrivateNN(db, cloak, PublicData, Options{Filters: f})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Candidates) == 0 {
				t.Fatalf("empty candidate list with %d targets", db.Len())
			}
		}
	}
}

func TestDataKindString(t *testing.T) {
	if PublicData.String() != "public" || PrivateData.String() != "private" {
		t.Fatal("DataKind.String broken")
	}
	if CountFractional.String() == "" || CountPolicy(99).String() == "" {
		t.Fatal("CountPolicy.String broken")
	}
}

func TestDensityGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	db := rectDB(rng, 1500, 300)
	grid, err := DensityGrid(db, world, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 8 || len(grid[0]) != 8 {
		t.Fatalf("grid shape %dx%d", len(grid), len(grid[0]))
	}
	// The fractional mass over the whole grid equals the population
	// (cloaks fully inside the universe contribute exactly 1).
	total := 0.0
	for _, row := range grid {
		for _, v := range row {
			if v < 0 {
				t.Fatal("negative density")
			}
			total += v
		}
	}
	if math.Abs(total-1500) > 1e-6 {
		t.Fatalf("total mass %v, want 1500", total)
	}
	// A point object lands entirely in one cell.
	single := rtree.New()
	single.Insert(rtree.Item{Rect: geom.Rect{Min: geom.Pt(100, 100), Max: geom.Pt(100, 100)}, ID: 1})
	g2, err := DensityGrid(single, world, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g2[0][0] != 1 {
		t.Fatalf("point mass = %v", g2[0][0])
	}
	// Validation.
	if _, err := DensityGrid(db, world, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := DensityGrid(db, geom.R(0, 0, 0, 1), 4); err == nil {
		t.Fatal("degenerate universe accepted")
	}
}

func TestDensityGridMatchesCountPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := rectDB(rng, 600, 400)
	const n = 4
	grid, err := DensityGrid(db, world, n)
	if err != nil {
		t.Fatal(err)
	}
	cw, ch := world.Width()/n, world.Height()/n
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			cell := geom.R(float64(x)*cw, float64(y)*ch, float64(x+1)*cw, float64(y+1)*ch)
			want, err := PublicRangeCount(db, cell, CountFractional)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(grid[y][x]-want) > 1e-9 {
				t.Fatalf("cell (%d,%d): grid %v vs count %v", x, y, grid[y][x], want)
			}
		}
	}
}

// TestPrivateNNTiesIndependentOfTreeShape loads the same grid-snapped
// targets — every cloak vertex equidistant from several of them — into
// trees built in different insertion orders and requires identical
// filters, A_EXT and candidate sets: with ties broken by ID, Algorithm
// 2's answer is a function of the data, which is what lets the
// continuous monitor maintain it as deltas.
func TestPrivateNNTiesIndependentOfTreeShape(t *testing.T) {
	var points, rects []rtree.Item
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			px, py := float64(x)*20, float64(y)*20
			id := int64(x*10 + y)
			points = append(points, rtree.Item{Rect: geom.R(px, py, px, py), ID: id})
			rects = append(rects, rtree.Item{Rect: geom.R(px, py, px+20, py+20), ID: id})
		}
	}
	cloaks := []geom.Rect{geom.R(90, 90, 110, 110), geom.R(80, 100, 120, 140), geom.R(0, 0, 20, 20), geom.R(70, 30, 110, 50)}
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		kind  DataKind
		items []rtree.Item
	}{{PublicData, points}, {PrivateData, rects}} {
		for _, filters := range []int{1, 2, 4} {
			opt := Options{Filters: filters}
			var want []Result
			for order := 0; order < 5; order++ {
				perm := append([]rtree.Item(nil), tc.items...)
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				db := rtree.NewWithCapacity(4)
				for _, it := range perm {
					db.Insert(it)
				}
				for ci, c := range cloaks {
					res, err := PrivateNN(db, c, tc.kind, opt)
					if err != nil {
						t.Fatal(err)
					}
					if order == 0 {
						want = append(want, res)
						continue
					}
					w := want[ci]
					if len(res.Filters) != len(w.Filters) || res.AExt != w.AExt {
						t.Fatalf("%v filters=%d cloak %v order %d: filters %v A_EXT %v, first tree %v %v",
							tc.kind, filters, c, order, res.Filters, res.AExt, w.Filters, w.AExt)
					}
					for i := range res.Filters {
						if res.Filters[i].ID != w.Filters[i].ID {
							t.Fatalf("%v filters=%d cloak %v order %d: filters %v, first tree %v", tc.kind, filters, c, order, res.Filters, w.Filters)
						}
					}
					if got, exp := idSet(res.Candidates), idSet(w.Candidates); len(got) != len(exp) {
						t.Fatalf("%v filters=%d cloak %v order %d: %d candidates, first tree %d", tc.kind, filters, c, order, len(got), len(exp))
					} else {
						for id := range exp {
							if !got[id] {
								t.Fatalf("%v filters=%d cloak %v order %d: candidate %d missing", tc.kind, filters, c, order, id)
							}
						}
					}
				}
			}
		}
	}
}

func idSet(items []rtree.Item) map[int64]bool {
	s := make(map[int64]bool, len(items))
	for _, it := range items {
		s[it.ID] = true
	}
	return s
}
