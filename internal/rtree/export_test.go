package rtree

import "casper/internal/geom"

// CheckInvariants exposes structural validation to the tests.
func (t *Tree) CheckInvariants() error { return t.checkInvariants() }

// NearestKNoPrune runs the k-NN search with distance pruning disabled,
// so tests can assert the pruned search returns identical results.
func (t *Tree) NearestKNoPrune(q geom.Point, k int, m Metric) []Neighbor {
	return t.nearestK(q, k, m, nil, nil, false)
}

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
