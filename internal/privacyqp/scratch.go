package privacyqp

import (
	"sync"

	"casper/internal/geom"
	"casper/internal/rtree"
)

// queryScratch is the per-query arena: every buffer a single query
// evaluation or client refinement needs, owned by the
// query for its duration and recycled through scratchPool afterwards.
// Results handed back to the caller are always copies — exact-size
// unless the caller supplied its own buffer (PrivateNNInto) — and
// nothing in a Result aliases scratch memory, so pooling is invisible
// to clients (Results are cached and held across queries).
type queryScratch struct {
	heap  *rtree.NNHeap    // k-NN traversal heap
	nbrs  []rtree.Neighbor // k-NN result buffer
	cand  []rtree.Item     // candidate-list accumulation
	filt  []rtree.Item     // filter-object accumulation
	filt2 []rtree.Item     // dedupe target for filt
	sites []site           // the exact step's sites
	edge  []edgeSite       // the sites of one edge walk
}

var scratchPool = sync.Pool{
	New: func() any { return &queryScratch{heap: &rtree.NNHeap{}} },
}

func getScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

func putScratch(sc *queryScratch) { scratchPool.Put(sc) }

// nearest1 probes the single nearest item to p using the query's
// scratch heap and neighbor buffer. On an empty db it returns the zero
// Neighbor and leaves sc.nbrs empty, which is how callers detect one.
func nearest1(db SpatialIndex, sc *queryScratch, p geom.Point, m rtree.Metric) rtree.Neighbor {
	sc.nbrs = db.NearestKInto(p, 1, m, sc.heap, sc.nbrs)
	if len(sc.nbrs) == 0 {
		return rtree.Neighbor{}
	}
	return sc.nbrs[0]
}

// copyItems returns an exact-size copy of src, or nil when empty —
// the one allocation a result list costs, so scratch buffers never
// escape into a Result.
func copyItems(src []rtree.Item) []rtree.Item {
	if len(src) == 0 {
		return nil
	}
	return append(make([]rtree.Item, 0, len(src)), src...)
}

// appendItems appends src to a caller's buffer dst, or returns
// copyItems(src) when dst is nil.
func appendItems(dst, src []rtree.Item) []rtree.Item {
	if dst == nil {
		return copyItems(src)
	}
	return append(dst, src...)
}
