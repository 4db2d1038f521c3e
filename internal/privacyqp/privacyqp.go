// Package privacyqp implements Casper's privacy-aware query processor
// (Sec. 5 of the paper): location-based query evaluation over cloaked
// spatial regions instead of exact point locations.
//
// The processor never sees who asked or where exactly they are. For a
// private nearest-neighbor query it receives only the cloaked region A
// and returns a candidate list that is provably
//
//   - inclusive: wherever the user actually is inside A, her exact
//     nearest target is in the list (Theorems 1 and 3), and
//   - minimal: the region fetched is the smallest possible given the
//     chosen filter objects (Theorems 2 and 4).
//
// The client then refines the exact answer locally from the candidate
// list.
//
// Algorithm 2 is implemented once, generalized over (a) the number of
// filter objects (1, 2 or 4 — the three variants compared in Sec. 6.2)
// and (b) the target representation: exact points for public data
// (Sec. 5.1) or cloaked rectangles for private data (Sec. 5.2), where
// all distances pessimistically use the furthest corner.
package privacyqp

import (
	"errors"
	"fmt"

	"casper/internal/geom"
	"casper/internal/rtree"
	"casper/internal/trace"
)

// DataKind says how targets are represented in the database.
type DataKind int

const (
	// PublicData targets are exact points (gas stations, hospitals).
	PublicData DataKind = iota
	// PrivateData targets are cloaked rectangles produced by the
	// location anonymizer (buddies, mobile users).
	PrivateData
)

// String implements fmt.Stringer.
func (k DataKind) String() string {
	if k == PrivateData {
		return "private"
	}
	return "public"
}

// Options tunes Algorithm 2.
type Options struct {
	// Filters is the number of filter objects: 1 (nearest to the
	// cloak's center), 2 (nearest to two opposite corners), or 4
	// (nearest to every corner — the algorithm as printed in the
	// paper). More filters shrink the candidate list at the price of
	// extra NN searches.
	Filters int
	// MinOverlap in [0,1] is the private-data admission policy from
	// Sec. 5.2.1 step 4: a private target enters the candidate list
	// only if at least this fraction of its cloaked area overlaps
	// A_EXT. Zero admits any overlap (the inclusive default; positive
	// values trade inclusiveness for a shorter list).
	MinOverlap float64
	// Trace, when non-nil, receives spans for the filter step
	// (query_filter) and the candidate-list range query (query_range)
	// of this one evaluation. It never affects the result and is not
	// part of any cache key.
	Trace *trace.Trace
}

// DefaultOptions is the paper's full algorithm: four filters, any
// overlap admits.
func DefaultOptions() Options { return Options{Filters: 4} }

func (o Options) validate() error {
	switch o.Filters {
	case 1, 2, 4:
	default:
		return fmt.Errorf("privacyqp: filters must be 1, 2 or 4 (got %d)", o.Filters)
	}
	// The negated range check also rejects NaN (every comparison with
	// NaN is false, so a plain < 0 || > 1 would admit it — and every
	// overlap test downstream would then silently admit nothing).
	if !(o.MinOverlap >= 0 && o.MinOverlap <= 1) {
		return fmt.Errorf("privacyqp: MinOverlap %v out of [0,1]", o.MinOverlap)
	}
	return nil
}

// Result is the processor's answer to a private query.
type Result struct {
	// Candidates is the candidate list sent back to the client; the
	// exact answer is guaranteed to be among them.
	Candidates []rtree.Item
	// AExt is the extended search area of Algorithm 2 step 3.
	AExt geom.Rect
	// Filters holds the filter objects chosen in step 1 (diagnostic).
	Filters []rtree.Item
	// NNSearches is how many nearest-neighbor probes the filter step
	// issued (equal to the number of distinct query anchors).
	NNSearches int
}

// ErrNoTargets is returned when the database holds no target objects
// the query can see.
var ErrNoTargets = errors.New("privacyqp: no target objects in database")

// PrivateNN evaluates a private nearest-neighbor query: given only the
// cloaked region of the user who asked, return the candidate list.
// kind selects the public-data algorithm (Sec. 5.1.1) or its
// private-data modification (Sec. 5.2.1).
func PrivateNN(db SpatialIndex, cloak geom.Rect, kind DataKind, opt Options) (Result, error) {
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	if !cloak.IsValid() {
		return Result{}, fmt.Errorf("privacyqp: invalid cloaked region %v", cloak)
	}

	metric := rtree.MinDist
	if kind == PrivateData {
		// A private target's distance from a vertex is measured to its
		// furthest corner: wherever it really is inside its cloak, it
		// is no further than that.
		metric = rtree.MaxDist
	}

	// The query owns a pooled scratch arena for its duration; every
	// buffer below lives in it, and only exact-size copies reach the
	// Result.
	sc := getScratch()
	defer putScratch(sc)

	// STEP 1 — the filter step: a filter object per vertex.
	fsp := opt.Trace.StartSpan("query_filter")
	corners := cloak.Corners()
	var res Result
	filters := [4]rtree.Item{} // per corner index
	switch opt.Filters {
	case 4:
		for i, v := range corners {
			filters[i] = nearest1(db, sc, v, metric)
			res.NNSearches++
		}
	case 2:
		// Two opposite corners: lower-left (0) and upper-right (3).
		t0 := nearest1(db, sc, corners[0], metric)
		t3 := nearest1(db, sc, corners[3], metric)
		res.NNSearches = 2
		filters[0], filters[3] = t0, t3
		// The remaining corners adopt whichever of the two filters is
		// closer to them (any assignment preserves inclusiveness; the
		// closer one gives the tighter extension).
		for _, i := range []int{1, 2} {
			if metric.DistTo(corners[i], t0.Rect) <= metric.DistTo(corners[i], t3.Rect) {
				filters[i] = t0
			} else {
				filters[i] = t3
			}
		}
	case 1:
		nb := nearest1(db, sc, cloak.Center(), metric)
		res.NNSearches = 1
		for i := range filters {
			filters[i] = nb
		}
	}
	if len(sc.nbrs) == 0 { // every probe came back empty
		return Result{}, ErrNoTargets
	}
	sc.filt = dedupeInto(sc.filt[:0], filters[:])
	res.Filters = copyItems(sc.filt)

	// STEPS 2+3 — the middle point and extended area steps, one edge
	// at a time. Rect.Edges yields bottom, top, left, right; the
	// expansion of each edge pushes that side outward.
	var expand [4]float64
	for ei, e := range cloak.Edges() {
		i, j := e[0], e[1]
		expand[ei] = edgeMaxD(
			geom.Segment{A: corners[i], B: corners[j]},
			corners[i], corners[j],
			filters[i], filters[j],
			kind,
		)
	}
	res.AExt = cloak.ExpandSides(expand[2], expand[3], expand[0], expand[1])
	if opt.Trace != nil {
		fsp.End(trace.Int("nn_searches", int64(res.NNSearches)),
			trace.Int("filters", int64(opt.Filters)))
	}

	// STEP 4 — the candidate list step: one range query over A_EXT.
	rsp := opt.Trace.StartSpan("query_range")
	sc.cand = admitted(db, sc.cand[:0], res.AExt, kind, opt.MinOverlap)
	res.Candidates = copyItems(sc.cand)
	if opt.Trace != nil {
		rsp.End(trace.Int("candidates", int64(len(res.Candidates))))
	}
	return res, nil
}

// admitted appends to dst the targets intersecting aext that the
// candidate list step admits: all of them, or for private data under a
// MinOverlap policy those with at least that fraction of their area in
// aext.
func admitted(db SpatialIndex, dst []rtree.Item, aext geom.Rect, kind DataKind, minOverlap float64) []rtree.Item {
	db.SearchFunc(aext, func(it rtree.Item) bool {
		if kind != PrivateData || minOverlap == 0 || geom.OverlapFraction(it.Rect, aext) >= minOverlap {
			dst = append(dst, it)
		}
		return true
	})
	return dst
}

// edgeMaxD computes max_d for one cloak edge: the largest distance
// from any point of the edge to its nearest assigned filter, attained
// at one of the two vertices or at the middle point m (Lines 14-17 of
// Algorithm 2).
func edgeMaxD(edge geom.Segment, vi, vj geom.Point, ti, tj rtree.Item, kind DataKind) float64 {
	di := filterDist(vi, ti, kind)
	dj := filterDist(vj, tj, kind)
	dm := 0.0
	if ti.ID != tj.ID || ti.Rect != tj.Rect {
		// Distinct filters: find the equidistant middle point. For
		// private data the connecting line L_ij joins the corner of
		// t_i furthest from the REVERSE vertex v_j and the corner of
		// t_j furthest from v_i (Sec. 5.2.1 step 2).
		ai, aj := anchor(ti, vj, kind), anchor(tj, vi, kind)
		if m, ok := geom.BisectorIntersection(edge, ai, aj); ok {
			// In exact arithmetic dist(m, ai) == dist(m, aj); take the
			// max so floating-point never under-expands.
			dm = maxf(m.Dist(ai), m.Dist(aj))
		}
	}
	return maxf(dm, maxf(di, dj))
}

// filterDist is the distance from a vertex to its filter object: exact
// for public points, furthest-corner for private rectangles.
func filterDist(v geom.Point, t rtree.Item, kind DataKind) float64 {
	if kind == PrivateData {
		return v.MaxDistRect(t.Rect)
	}
	return v.Dist(t.Rect.Min) // public targets are degenerate rects
}

// anchor returns the representative point of filter t for building the
// connecting line L_ij: the target itself for public data, or the
// corner furthest from the reverse vertex for private data.
func anchor(t rtree.Item, reverse geom.Point, kind DataKind) geom.Point {
	if kind == PrivateData {
		return t.Rect.FurthestCorner(reverse)
	}
	return t.Rect.Min
}

// dedupeInto appends the items of src that are distinct by (ID, rect)
// to dst and returns it; callers pass a scratch buffer as dst[:0] so
// dedupe costs no allocation on the hot path.
func dedupeInto(dst, src []rtree.Item) []rtree.Item {
	for _, it := range src {
		dup := false
		for _, o := range dst {
			if o.ID == it.ID && o.Rect == it.Rect {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, it)
		}
	}
	return dst
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RefineNN is the client-side refinement step: given the exact user
// location and the candidate list, return the true nearest target.
// For private-data candidates the distance to a cloaked target is its
// expected pessimistic distance (furthest corner), matching the server
// metric. ok is false on an empty list.
func RefineNN(user geom.Point, candidates []rtree.Item, kind DataKind) (rtree.Item, bool) {
	if len(candidates) == 0 {
		return rtree.Item{}, false
	}
	best := candidates[0]
	bd := refineDist(user, best, kind)
	for _, c := range candidates[1:] {
		if d := refineDist(user, c, kind); d < bd {
			best, bd = c, d
		}
	}
	return best, true
}

func refineDist(user geom.Point, it rtree.Item, kind DataKind) float64 {
	if kind == PrivateData {
		return user.MaxDistRect(it.Rect)
	}
	return user.Dist(it.Rect.Min)
}
