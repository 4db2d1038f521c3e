package rtree

import "casper/internal/geom"

// CheckInvariants exposes structural validation to the tests.
func (t *Tree) CheckInvariants() error { return t.checkInvariants() }

// SharedNodes returns how many of a's nodes are also reachable from b
// (the same pointer), so tests can check that a write to a clone copies
// only its path.
func SharedNodes(a, b *Tree) int {
	inB := map[*node]bool{}
	var mark func(n *node)
	mark = func(n *node) {
		inB[n] = true
		for _, c := range n.children {
			mark(c)
		}
	}
	mark(b.root)
	shared := 0
	var count func(n *node)
	count = func(n *node) {
		if inB[n] {
			shared++
		}
		for _, c := range n.children {
			count(c)
		}
	}
	count(a.root)
	return shared
}

// DeleteVisits deletes (id, r) from t and returns the MBRs of the
// nodes Delete's search entered, in order.
func DeleteVisits(t *Tree, id int64, r geom.Rect) (deleted bool, visited []geom.Rect) {
	findLeafVisit = func(mbr geom.Rect) { visited = append(visited, mbr) }
	defer func() { findLeafVisit = nil }()
	deleted = t.Delete(id, r)
	return deleted, visited
}
