package privacyqp

import (
	"fmt"

	"casper/internal/geom"
	"casper/internal/rtree"
	"casper/internal/trace"
)

// This file evaluates queries for PERTURBED-POINT releases (the
// geo-indistinguishability backend): the processor receives a noisy
// point q plus a confidence radius r such that the true user position
// p lies within distance r of q. That is a different shape of
// uncertainty than a cloaked rectangle — a disc instead of a box — and
// admits a tighter candidate construction than running Algorithm 2
// over the disc's bounding box:
//
// Let d* = dist(q, t*) be the distance from the noisy point to its
// nearest target. For any true position p in the disc, the triangle
// inequality gives dist(p, t*) <= d* + r, so p's exact nearest target
// t satisfies dist(q, t) <= dist(p, t) + r <= d* + 2r. The inclusive
// candidate set is therefore every target within d* + 2r of q — one NN
// probe and one range query, against the four probes Algorithm 2
// would issue over the bounding box.
//
// The same Lipschitz argument extends to k-NN (replace d* with the
// k-th nearest distance) and range queries (targets within R of p are
// within R + r of q). For private data the target-side uncertainty
// composes exactly as in Sec. 5.2: NN distances pessimistically use
// the furthest corner, range admission optimistically uses the
// nearest one.

// PerturbedNN evaluates a nearest-neighbor query for a perturbed-point
// release: the candidate list contains the exact nearest target of
// every true position within radius of center. Only opt.MinOverlap
// and opt.Trace apply (there is no filter-count choice: the
// construction always issues exactly one NN probe).
func PerturbedNN(db SpatialIndex, center geom.Point, radius float64, kind DataKind, opt Options) (Result, error) {
	if opt.Filters == 0 {
		opt.Filters = 1 // the knob does not apply; accept the zero value
	}
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	if !(radius >= 0) {
		return Result{}, fmt.Errorf("privacyqp: perturbed radius %v, need >= 0", radius)
	}

	metric := rtree.MinDist
	if kind == PrivateData {
		metric = rtree.MaxDist
	}

	sc := getScratch()
	defer putScratch(sc)

	fsp := opt.Trace.StartSpan("query_filter")
	t := nearest1(db, sc, center, metric)
	if len(sc.nbrs) == 0 {
		return Result{}, ErrNoTargets
	}
	dstar := metric.DistTo(center, t.Rect)
	res := Result{NNSearches: 1}
	sc.filt = append(sc.filt[:0], t)
	res.Filters = copyItems(sc.filt)
	bound := dstar + 2*radius
	res.AExt = geom.R(center.X-bound, center.Y-bound, center.X+bound, center.Y+bound)
	if opt.Trace != nil {
		fsp.End(trace.Int("nn_searches", 1))
	}

	rsp := opt.Trace.StartSpan("query_range")
	sc.cand = collectWithin(db, sc.cand[:0], res.AExt, center, bound, kind, opt.MinOverlap)
	res.Candidates = copyItems(sc.cand)
	if opt.Trace != nil {
		rsp.End(trace.Int("candidates", int64(len(res.Candidates))))
	}
	return res, nil
}

// PerturbedKNN is the k-nearest-neighbor form of PerturbedNN: one
// k-NN probe at the noisy point, then every target within the k-th
// distance plus 2·radius is a candidate.
func PerturbedKNN(db SpatialIndex, center geom.Point, radius float64, k int, kind DataKind, opt Options) (Result, error) {
	if opt.Filters == 0 {
		opt.Filters = 1 // the knob does not apply; accept the zero value
	}
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	if k < 1 {
		return Result{}, fmt.Errorf("privacyqp: k = %d, need k >= 1", k)
	}
	if !(radius >= 0) {
		return Result{}, fmt.Errorf("privacyqp: perturbed radius %v, need >= 0", radius)
	}

	metric := rtree.MinDist
	if kind == PrivateData {
		metric = rtree.MaxDist
	}

	sc := getScratch()
	defer putScratch(sc)

	fsp := opt.Trace.StartSpan("query_filter")
	sc.nbrs = db.NearestKInto(center, k, metric, sc.heap, sc.nbrs)
	if err := tooFew(len(sc.nbrs), k); err != nil {
		return Result{}, err
	}
	res := Result{NNSearches: 1}
	sc.filt = sc.filt[:0]
	for _, n := range sc.nbrs {
		sc.filt = append(sc.filt, n.Item)
	}
	res.Filters = copyItems(sc.filt)
	dk := sc.nbrs[len(sc.nbrs)-1].Dist
	bound := dk + 2*radius
	res.AExt = geom.R(center.X-bound, center.Y-bound, center.X+bound, center.Y+bound)
	if opt.Trace != nil {
		fsp.End(trace.Int("nn_searches", 1))
	}

	rsp := opt.Trace.StartSpan("query_range")
	sc.cand = collectWithin(db, sc.cand[:0], res.AExt, center, bound, kind, opt.MinOverlap)
	res.Candidates = copyItems(sc.cand)
	if opt.Trace != nil {
		rsp.End(trace.Int("candidates", int64(len(res.Candidates))))
	}
	return res, nil
}

// PerturbedRange answers a range query for a perturbed-point release:
// every target within queryRadius of ANY position in the confidence
// disc, i.e. within queryRadius + radius of the noisy point.
func PerturbedRange(db SpatialIndex, center geom.Point, radius, queryRadius float64, kind DataKind) (Result, error) {
	if !(radius >= 0) {
		return Result{}, fmt.Errorf("privacyqp: perturbed radius %v, need >= 0", radius)
	}
	if !(queryRadius >= 0) {
		return Result{}, fmt.Errorf("privacyqp: negative radius %v", queryRadius)
	}
	bound := queryRadius + radius
	aext := geom.R(center.X-bound, center.Y-bound, center.X+bound, center.Y+bound)
	res := Result{AExt: aext}
	sc := getScratch()
	defer putScratch(sc)
	sc.cand = collectWithin(db, sc.cand[:0], aext, center, bound, kind, 0)
	res.Candidates = copyItems(sc.cand)
	return res, nil
}

// collectWithin appends to dst every target in box whose distance from
// center is within bound: the circle prune over the bounding box's
// corner slack. Admission is optimistic for private data (a cloaked
// target qualifies if ANY of its positions is within bound — the
// inclusive choice), optionally tightened by the MinOverlap policy
// against the box exactly as in Algorithm 2 step 4.
func collectWithin(db SpatialIndex, dst []rtree.Item, box geom.Rect, center geom.Point, bound float64, kind DataKind, minOverlap float64) []rtree.Item {
	db.SearchFunc(box, func(it rtree.Item) bool {
		// MinDistRect for both kinds: optimistic admission for private
		// targets, and for public (point) targets bit-identical to the
		// MinDist metric the filter probe derived bound from — mixing
		// in Dist here can differ by an ulp and drop the probe's own
		// nearest target when radius is 0.
		d := center.MinDistRect(it.Rect)
		if d > bound {
			return true
		}
		if kind == PrivateData && minOverlap > 0 &&
			geom.OverlapFraction(it.Rect, box) < minOverlap {
			return true
		}
		dst = append(dst, it)
		return true
	})
	return dst
}
