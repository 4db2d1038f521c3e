package privacyqp

import (
	"fmt"
	"math"
	"sort"

	"casper/internal/geom"
	"casper/internal/rtree"
	"casper/internal/trace"
)

// This file extends the private nearest-neighbor query of Sec. 5 to
// k-nearest-neighbor queries ("where are my three nearest gas
// stations?") — one of the "straightforward extensions" the paper
// gestures at. The construction generalizes Algorithm 2's extended
// area:
//
// Let f(p) be the distance from p to its k-th nearest target (under
// the public point metric or the private furthest-corner metric).
// f is 1-Lipschitz: moving the query point by d changes every
// target distance by at most d, hence the k-th smallest by at most d.
// For a point p on a cloak edge v_i v_j,
//
//	f(p) <= min(f(v_i) + |p-v_i|, f(v_j) + |p-v_j|)
//	     <= (f(v_i) + f(v_j) + |v_i v_j|) / 2,
//
// so expanding each edge outward by
//
//	max_d = max(f(v_i), f(v_j), (f(v_i)+f(v_j)+|edge|)/2)
//
// yields an area containing all k nearest targets of every possible
// user position (the sideways spill is covered by the adjacent edges'
// expansions exactly as in Theorem 1's proof, since f(p) <= f(v_i) +
// |p-v_i| bounds the reach beyond the corner by f(v_i)).
//
// For k = 1 this is a valid but slightly coarser alternative to
// Algorithm 2's middle-point construction (the Lipschitz bound cannot
// exploit which of the two filters owns each edge segment), so
// PrivateNN remains the 1-NN entry point.

// PrivateKNN evaluates a private k-nearest-neighbor query over the
// cloaked region: the candidate list contains the k nearest targets
// for every possible user position in the cloak. opt.Filters selects
// how many anchors sample the k-th-NN distance function (1 = center
// only, 2/4 = corners), trading NN searches for a tighter area.
func PrivateKNN(db SpatialIndex, cloak geom.Rect, k int, kind DataKind, opt Options) (Result, error) {
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	if k < 1 {
		return Result{}, fmt.Errorf("privacyqp: k = %d, need k >= 1", k)
	}
	if !cloak.IsValid() {
		return Result{}, fmt.Errorf("privacyqp: invalid cloaked region %v", cloak)
	}

	metric := rtree.MinDist
	if kind == PrivateData {
		metric = rtree.MaxDist
	}

	sc := getScratch()
	defer putScratch(sc)

	fsp := opt.Trace.StartSpan("query_filter")
	corners := cloak.Corners()
	// kthDist[i] is f(v_i): the distance from corner i to its k-th
	// nearest target. With fewer filters, unsampled corners get a
	// Lipschitz upper bound from the sampled anchors.
	var kthDist [4]float64
	var res Result

	sc.filt = sc.filt[:0]
	sample := func(p geom.Point) float64 {
		sc.nbrs = db.NearestKInto(p, k, metric, sc.heap, sc.nbrs)
		res.NNSearches++
		for _, n := range sc.nbrs {
			sc.filt = append(sc.filt, n.Item)
		}
		if len(sc.nbrs) < k { // reported by tooFew below
			return math.Inf(1)
		}
		return sc.nbrs[len(sc.nbrs)-1].Dist
	}

	switch opt.Filters {
	case 4:
		for i, v := range corners {
			kthDist[i] = sample(v)
		}
	case 2:
		d0 := sample(corners[0])
		d3 := sample(corners[3])
		kthDist[0], kthDist[3] = d0, d3
		for _, i := range []int{1, 2} {
			kthDist[i] = minf(d0+corners[i].Dist(corners[0]), d3+corners[i].Dist(corners[3]))
		}
	case 1:
		c := cloak.Center()
		dc := sample(c)
		for i, v := range corners {
			kthDist[i] = dc + v.Dist(c)
		}
	}
	// Every probe finds min(k, stored) targets, so the last one decides.
	if err := tooFew(len(sc.nbrs), k); err != nil {
		return Result{}, err
	}
	sc.filt2 = dedupeInto(sc.filt2[:0], sc.filt)
	res.Filters = copyItems(sc.filt2)

	var expand [4]float64
	for ei, e := range cloak.Edges() {
		i, j := e[0], e[1]
		di, dj := kthDist[i], kthDist[j]
		edgeLen := corners[i].Dist(corners[j])
		expand[ei] = maxf(maxf(di, dj), (di+dj+edgeLen)/2)
	}
	res.AExt = cloak.ExpandSides(expand[2], expand[3], expand[0], expand[1])
	if opt.Trace != nil {
		fsp.End(trace.Int("nn_searches", int64(res.NNSearches)),
			trace.Int("filters", int64(opt.Filters)))
	}

	rsp := opt.Trace.StartSpan("query_range")
	sc.cand = admitted(db, sc.cand[:0], res.AExt, kind, opt.MinOverlap)
	res.Candidates = copyItems(sc.cand)
	if opt.Trace != nil {
		rsp.End(trace.Int("candidates", int64(len(res.Candidates))))
	}
	return res, nil
}

// tooFew is the error for a k-NN probe that found only n < k targets.
func tooFew(n, k int) error {
	switch {
	case n == 0:
		return ErrNoTargets
	case n < k:
		return fmt.Errorf("privacyqp: k = %d exceeds %d stored targets", k, n)
	}
	return nil
}

// RefineKNN is the client-side refinement for PrivateKNN: the k
// candidates nearest to the exact user location, ascending.
func RefineKNN(user geom.Point, candidates []rtree.Item, k int, kind DataKind) []rtree.Item {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	sorted := append([]rtree.Item(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool {
		return refineDist(user, sorted[i], kind) < refineDist(user, sorted[j], kind)
	})
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
