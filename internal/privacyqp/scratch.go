package privacyqp

import (
	"sync"
	"sync/atomic"

	"casper/internal/geom"
	"casper/internal/rtree"
)

// queryScratch is the per-query arena: every buffer a single
// PrivateNN/PrivateKNN/PrivateRange evaluation needs, owned by the
// query for its duration and recycled through scratchPool afterwards.
// Results handed back to the caller are always exact-size copies —
// nothing in a Result aliases scratch memory, so pooling is invisible
// to clients (Results are cached and held across queries).
type queryScratch struct {
	heap  *rtree.NNHeap    // k-NN traversal heap
	nbrs  []rtree.Neighbor // k-NN result buffer
	cand  []rtree.Item     // candidate-list accumulation
	filt  []rtree.Item     // filter-object accumulation
	filt2 []rtree.Item     // dedupe target for filt
}

var scratchPool = sync.Pool{
	New: func() any { return &queryScratch{heap: &rtree.NNHeap{}} },
}

// scratchReuse gates the pool. It exists only so benchmarks can
// reconstruct the pre-optimization allocation profile; see
// SetScratchReuse.
var scratchReuse atomic.Bool

func init() { scratchReuse.Store(true) }

func getScratch() *queryScratch {
	if !scratchReuse.Load() {
		return &queryScratch{heap: &rtree.NNHeap{}}
	}
	return scratchPool.Get().(*queryScratch)
}

func putScratch(sc *queryScratch) {
	if scratchReuse.Load() {
		scratchPool.Put(sc)
	}
}

// SetScratchReuse enables or disables the pooled per-query scratch
// arena and reports the previous setting. Production code leaves reuse
// on (the default); the alloc-baseline benchmarks
// (BenchmarkNNBaseline and friends) turn it off to measure the
// fresh-buffers-per-query profile this package had before the arena
// existed.
func SetScratchReuse(on bool) bool { return scratchReuse.Swap(on) }

// nearest1 probes the single nearest item to p using the query's
// scratch heap and neighbor buffer. On an empty db it returns the zero
// Item and leaves sc.nbrs empty, which is how callers detect one.
func nearest1(db SpatialIndex, sc *queryScratch, p geom.Point, m rtree.Metric) rtree.Item {
	sc.nbrs = db.NearestKInto(p, 1, m, sc.heap, sc.nbrs)
	if len(sc.nbrs) == 0 {
		return rtree.Item{}
	}
	return sc.nbrs[0].Item
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
