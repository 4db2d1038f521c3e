package privacyqp

import (
	"casper/internal/geom"
	"casper/internal/rtree"
)

// SpatialIndex is the spatial-access-method contract the privacy-aware
// query processor needs: one nearest-neighbor primitive for the filter
// step, one range primitive for the candidate-list step, and a full
// listing for the ship-everything baseline. The paper
// is explicit that Casper is independent of the underlying index
// ("it can be employed using R-tree or any other methods", Sec. 5.1.1);
// this interface is that independence made concrete. *rtree.Tree and
// *gridindex.Grid both satisfy it, and the equivalence is
// property-tested in index_test.go.
//
// The contract has no size method: the query algorithms learn that an
// index is empty from the nearest-neighbor probe they issue anyway,
// which is what lets Without hide an object without knowing whether it
// is stored.
type SpatialIndex interface {
	// NearestKInto returns the k nearest items in ascending distance
	// order (fewer if the index holds fewer), appended into out[:0];
	// a single nearest neighbor is the k = 1 call.
	// The heap h (ignored by indexes that do not traverse a node heap;
	// nil allocates one) is reused across calls, so repeated queries
	// allocate nothing.
	NearestKInto(q geom.Point, k int, m rtree.Metric, h *rtree.NNHeap, out []rtree.Neighbor) []rtree.Neighbor
	// SearchFunc streams items intersecting r; returning false stops.
	SearchFunc(r geom.Rect, fn func(rtree.Item) bool)
	// All returns every stored item in unspecified order.
	All() []rtree.Item
}

// Compile-time check that the R-tree satisfies the contract.
var _ SpatialIndex = (*rtree.Tree)(nil)

// Without returns db with the object whose ID is id hidden from every
// primitive: the asker's own stored cloak in a private query over
// private data (Sec. 5.2). A negative id hides nothing and returns db
// itself. IDs are assumed unique in db, as pseudonyms are.
//
// The asker is hidden before Algorithm 2 runs, not dropped from its
// answer afterwards, because Theorem 3 is a statement about the table
// the algorithm sees. Left visible, the asker's own cloak is the
// nearest target of the query cloak's vertices whenever the other users
// are further off, so it becomes every filter object, A_EXT shrinks to
// the cloak, and once it is removed the list holds nobody who could be
// the nearest other user. Hidden, the filters are other users and the
// list is inclusive for them.
func Without(db SpatialIndex, id int64) SpatialIndex {
	if id < 0 {
		return db
	}
	return without{db: db, id: id}
}

type without struct {
	db SpatialIndex
	id int64
}

// NearestKInto asks for one neighbor more than k and drops the hidden
// one, so what remains are the k nearest of the others.
func (w without) NearestKInto(q geom.Point, k int, m rtree.Metric, h *rtree.NNHeap, out []rtree.Neighbor) []rtree.Neighbor {
	if k <= 0 {
		return out[:0]
	}
	out = w.db.NearestKInto(q, k+1, m, h, out)
	for i, n := range out {
		if n.Item.ID == w.id {
			return append(out[:i], out[i+1:]...)
		}
	}
	return out[:min(len(out), k)]
}

func (w without) SearchFunc(r geom.Rect, fn func(rtree.Item) bool) {
	w.db.SearchFunc(r, func(it rtree.Item) bool { return it.ID == w.id || fn(it) })
}

func (w without) All() []rtree.Item {
	all := w.db.All()
	for i, it := range all {
		if it.ID == w.id {
			return append(all[:i], all[i+1:]...)
		}
	}
	return all
}
