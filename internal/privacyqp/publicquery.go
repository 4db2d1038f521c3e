package privacyqp

import (
	"fmt"
	"math"

	"casper/internal/geom"
	"casper/internal/rtree"
)

// This file implements the second of the paper's three novel query
// types: public queries over private data (Sec. 5), e.g. an
// administrator asking "how many mobile users are in this area?". The
// query region is exact; the data are cloaked rectangles. The paper
// treats it as the special case of private-over-private where the
// query area is exactly known, and points to probabilistic policies
// ("return only targets with more than x% of their cloaked areas
// overlapping") for deciding membership.

// CountPolicy decides when a cloaked object counts as inside a query
// region.
type CountPolicy int

const (
	// CountAnyOverlap counts an object if its cloak overlaps the
	// region at all (the inclusive upper bound).
	CountAnyOverlap CountPolicy = iota
	// CountCenterIn counts an object if its cloak's center is inside
	// the region (an unbiased point estimate).
	CountCenterIn
	// CountFractional sums, over overlapping objects, the fraction of
	// each cloak inside the region: the expected count under the
	// uniform-position guarantee the anonymizer provides (Sec. 4.3's
	// quality property makes this estimator well-founded).
	CountFractional
)

// String implements fmt.Stringer.
func (p CountPolicy) String() string {
	switch p {
	case CountAnyOverlap:
		return "any-overlap"
	case CountCenterIn:
		return "center-in"
	case CountFractional:
		return "fractional"
	default:
		return fmt.Sprintf("CountPolicy(%d)", int(p))
	}
}

// Contribution is the amount a cloaked region adds to a count over
// query under the policy: PublicRangeCount sums it over the stored
// cloaks, and the continuous monitor maintains standing counts by its
// deltas.
func (p CountPolicy) Contribution(region, query geom.Rect) float64 {
	switch p {
	case CountAnyOverlap:
		if region.Intersects(query) {
			return 1
		}
	case CountCenterIn:
		if query.Contains(region.Center()) {
			return 1
		}
	case CountFractional:
		return geom.OverlapFraction(region, query)
	}
	return 0
}

// PublicRangeCount answers a public range query over private data:
// how many cloaked objects are in region r, under the given policy.
// The float result is integral except under CountFractional.
func PublicRangeCount(db SpatialIndex, r geom.Rect, policy CountPolicy) (float64, error) {
	if !r.IsValid() {
		return 0, fmt.Errorf("privacyqp: invalid query region %v", r)
	}
	var total float64
	db.SearchFunc(r, func(it rtree.Item) bool {
		total += policy.Contribution(it.Rect, r)
		return true
	})
	return total, nil
}

// PublicRangeObjects returns the cloaked objects admitted into region
// r by the MinOverlap policy (0 = any overlap). This is the listing
// form of PublicRangeCount for administrators who need the regions
// themselves.
func PublicRangeObjects(db SpatialIndex, r geom.Rect, minOverlap float64) ([]rtree.Item, error) {
	if !r.IsValid() {
		return nil, fmt.Errorf("privacyqp: invalid query region %v", r)
	}
	if minOverlap < 0 || minOverlap > 1 {
		return nil, fmt.Errorf("privacyqp: MinOverlap %v out of [0,1]", minOverlap)
	}
	var out []rtree.Item
	db.SearchFunc(r, func(it rtree.Item) bool {
		if minOverlap == 0 || geom.OverlapFraction(it.Rect, r) >= minOverlap {
			out = append(out, it)
		}
		return true
	})
	return out, nil
}

// DensityGrid answers the map-wide form of the public count query: an
// n x n grid of expected user counts over the universe, computed from
// cloaks only. Each cloaked object contributes to every grid cell it
// overlaps, weighted by the overlapped fraction of its area — the
// expected-count estimator justified by the anonymizer's uniformity
// guarantee (Sec. 4.3). The grid is row-major with [0] the bottom row;
// its cell sums equal the (fractional) population inside the universe.
func DensityGrid(db SpatialIndex, universe geom.Rect, n int) ([][]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("privacyqp: density grid n = %d", n)
	}
	if !universe.IsValid() || universe.Area() <= 0 {
		return nil, fmt.Errorf("privacyqp: invalid universe %v", universe)
	}
	grid := make([][]float64, n)
	for i := range grid {
		grid[i] = make([]float64, n)
	}
	cw := universe.Width() / float64(n)
	ch := universe.Height() / float64(n)
	db.SearchFunc(universe, func(it rtree.Item) bool {
		// Bucket range the cloak overlaps.
		x0 := clampIdx(int((it.Rect.Min.X-universe.Min.X)/cw), n)
		x1 := clampIdx(int((it.Rect.Max.X-universe.Min.X)/cw), n)
		y0 := clampIdx(int((it.Rect.Min.Y-universe.Min.Y)/ch), n)
		y1 := clampIdx(int((it.Rect.Max.Y-universe.Min.Y)/ch), n)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				cell := geom.R(
					universe.Min.X+float64(x)*cw, universe.Min.Y+float64(y)*ch,
					universe.Min.X+float64(x+1)*cw, universe.Min.Y+float64(y+1)*ch,
				)
				grid[y][x] += geom.OverlapFraction(it.Rect, cell)
			}
		}
		return true
	})
	return grid, nil
}

func clampIdx(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// PrivateRange answers a private range query ("all targets within
// distance radius of me") given only the cloaked region of the asker:
// the inclusive candidate set is every target within radius of ANY
// point of the cloak, i.e. a range query over the cloak expanded by
// radius on all sides. The client refines locally. This is the
// "straightforward extension to range queries" the paper notes in
// Sec. 5; the expansion is exact for the rectangle-norm and inclusive
// for the Euclidean ball.
func PrivateRange(db SpatialIndex, cloak geom.Rect, radius float64, kind DataKind) (Result, error) {
	if !cloak.IsValid() {
		return Result{}, fmt.Errorf("privacyqp: invalid cloaked region %v", cloak)
	}
	if err := checkRangeRadius(radius); err != nil {
		return Result{}, err
	}
	aext := cloak.Expand(radius)
	res := Result{AExt: aext}
	sc := getScratch()
	defer putScratch(sc)
	sc.cand = sc.cand[:0]
	db.SearchFunc(aext, func(it rtree.Item) bool {
		if InRange(it.Rect, cloak, radius, kind) {
			sc.cand = append(sc.cand, it)
		}
		return true
	})
	res.Candidates = copyItems(sc.cand)
	return res, nil
}

// checkRangeRadius is the rule both range kernels (PrivateRange and
// PerturbedRange) apply to a query radius: finite and non-negative.
// The negated test also rejects NaN, as Options.validate does; +Inf
// would make the candidate list the whole table and cannot index a
// standing query's interest region.
func checkRangeRadius(radius float64) error {
	if !(radius >= 0) || math.IsInf(radius, 1) {
		return fmt.Errorf("privacyqp: range radius %v, need finite and >= 0", radius)
	}
	return nil
}

// InRange is PrivateRange's admission rule: a target with region r is
// a candidate of the query (cloak, radius) if it intersects the cloak
// expanded by radius and its distance to the cloak — the nearest point
// of its region for private data — is within radius. The second test
// prunes the expanded rectangle's corner slack.
func InRange(r, cloak geom.Rect, radius float64, kind DataKind) bool {
	if !r.Intersects(cloak.Expand(radius)) {
		return false
	}
	if kind == PrivateData {
		return geom.MinDistRects(cloak, r) <= radius
	}
	return r.Min.MinDistRect(cloak) <= radius
}

// RefineRange is the client-side refinement for PrivateRange: keep the
// candidates truly within radius of the user's exact location (any
// overlap of the pessimistic ball for private data). The matches
// gather in scratch, so the result is the one exact-size allocation.
func RefineRange(user geom.Point, candidates []rtree.Item, radius float64, kind DataKind) []rtree.Item {
	sc := getScratch()
	defer putScratch(sc)
	sc.cand = sc.cand[:0]
	for _, c := range candidates {
		var d float64
		if kind == PrivateData {
			d = user.MinDistRect(c.Rect)
		} else {
			d = user.Dist(c.Rect.Min)
		}
		if d <= radius {
			sc.cand = append(sc.cand, c)
		}
	}
	return copyItems(sc.cand)
}
