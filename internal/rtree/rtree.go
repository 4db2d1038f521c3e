// Package rtree implements an R-tree spatial index over axis-aligned
// rectangles (Guttman's quadratic-split variant with an STR bulk
// loader).
//
// The privacy-aware query processor of the Casper paper explicitly
// leaves the choice of spatial index open ("it can be employed using
// R-tree or any other methods", Sec. 5.1.1); this package provides that
// traditional location-based server substrate. It supports the two
// query primitives Algorithm 2 needs:
//
//   - range search (Search / SearchFunc) for the candidate-list step, and
//   - best-first k-nearest-neighbor search (Nearest / NearestK) for the
//     filter step, under either the usual min-distance metric (public
//     point data) or the min-max metric (private data represented by
//     cloaked rectangles, Sec. 5.2.1, where a target's distance from a
//     vertex is measured to its furthest corner).
//
// The tree is not safe for concurrent mutation; readers may run
// concurrently with each other. Callers that interleave writes and
// reads must serialize externally (internal/server does so).
//
// Snapshots are persistent: Clone is O(1) and shares every node with
// the original, and a later write to either tree copies only the nodes
// it changes (copy-on-write, O(height) per insert or delete). A tree
// that is never cloned owns all of its nodes and mutates them in place.
package rtree

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"casper/internal/geom"
)

// Default node capacity. 32 entries keeps internal nodes within one or
// two cache lines of child pointers while staying shallow for the
// 10K-50K object populations used in the paper's experiments.
const (
	defaultMaxEntries = 32
)

// Item is a spatial object stored in the tree: a rectangle (a point is
// a degenerate rectangle), a caller-assigned identifier, and an
// optional payload.
type Item struct {
	Rect geom.Rect
	ID   int64
	Data any
}

// Metric selects the distance function used by nearest-neighbor
// searches.
type Metric int

const (
	// MinDist ranks an item by the minimum distance from the query
	// point to the item's rectangle (zero if the point is inside).
	// This is the standard metric for public point data.
	MinDist Metric = iota
	// MaxDist ranks an item by the distance from the query point to
	// the furthest corner of the item's rectangle. Casper uses this
	// pessimistic metric when targets are private cloaked regions:
	// the target is assumed to be at its furthest corner (Sec. 5.2.1).
	MaxDist
)

// DistTo evaluates the metric for an item rectangle.
func (m Metric) DistTo(q geom.Point, r geom.Rect) float64 {
	if m == MaxDist {
		return q.MaxDistRect(r)
	}
	return q.MinDistRect(r)
}

// Tree is an R-tree. The zero value is not usable; call New.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int
	// gen is the tree's write token: nodes stamped with it belong to
	// this tree alone and are mutated in place; any other node may be
	// shared with another tree and is copied before a write (own).
	gen uint64
}

type node struct {
	mbr      geom.Rect
	leaf     bool
	items    []Item  // leaf only
	children []*node // internal only
	gen      uint64  // write token of the tree that created the node
}

// gens issues write tokens; every tree and every Clone draws a fresh one.
var gens atomic.Uint64

func nextGen() uint64 { return gens.Add(1) }

// own returns n if this tree owns it, and otherwise a copy of n that it
// does own, with fresh entry slices that have room for the one entry an
// insert or a split appends. The caller links the copy into its
// (already owned) parent or into t.root.
func (t *Tree) own(n *node) *node {
	if n.gen == t.gen {
		return n
	}
	c := &node{mbr: n.mbr, leaf: n.leaf, gen: t.gen}
	if n.leaf {
		c.items = append(make([]Item, 0, len(n.items)+1), n.items...)
	} else {
		c.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	}
	return c
}

// New returns an empty tree with the default node capacity.
func New() *Tree { return NewWithCapacity(defaultMaxEntries) }

// NewWithCapacity returns an empty tree whose nodes hold at most
// maxEntries entries (minimum fill is 40%). It panics if maxEntries < 4.
func NewWithCapacity(maxEntries int) *Tree {
	if maxEntries < 4 {
		panic(fmt.Sprintf("rtree: capacity %d too small (need >= 4)", maxEntries))
	}
	gen := nextGen()
	return &Tree{
		root:       &node{leaf: true, gen: gen},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
		gen:        gen,
	}
}

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.size }

// Bounds returns the minimum bounding rectangle of all items and false
// when the tree is empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.mbr, true
}

// Insert adds an item. Duplicate IDs are allowed (the tree is a
// multiset); Delete removes by (ID, Rect) match.
func (t *Tree) Insert(it Item) {
	if !it.Rect.IsValid() {
		panic(fmt.Sprintf("rtree: inserting invalid rect %v", it.Rect))
	}
	path := t.chooseLeaf(it.Rect)
	leaf := path[len(path)-1]
	leaf.items = append(leaf.items, it)
	leaf.mbr = leaf.mbr.Union(it.Rect)
	if len(leaf.items) == 1 {
		leaf.mbr = it.Rect
	}
	t.size++
	t.splitUpward(path)
}

// chooseLeaf descends to the leaf whose MBR needs least enlargement to
// absorb r, breaking ties by smaller area (Guttman's ChooseLeaf). It
// owns every node on the way down and returns that root-to-leaf path.
func (t *Tree) chooseLeaf(r geom.Rect) []*node {
	n := t.own(t.root)
	t.root = n
	path := []*node{n}
	for !n.leaf {
		bi := 0
		bestEnl, bestArea := enlargement(n.children[0].mbr, r), n.children[0].mbr.Area()
		for i, c := range n.children[1:] {
			enl := enlargement(c.mbr, r)
			area := c.mbr.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				bi, bestEnl, bestArea = i+1, enl, area
			}
		}
		// Grow MBRs along the path eagerly so splits see fresh bounds.
		n.mbr = n.mbr.Union(r)
		c := t.own(n.children[bi])
		n.children[bi] = c
		path = append(path, c)
		n = c
	}
	return path
}

func enlargement(mbr, r geom.Rect) float64 {
	return mbr.Union(r).Area() - mbr.Area()
}

// splitUpward splits the overfull nodes of an owned root-to-leaf path,
// bottom up, attaching each split sibling to its parent and growing a
// new root when the root splits.
func (t *Tree) splitUpward(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.count() <= t.maxEntries {
			return
		}
		sib := t.splitNode(n)
		if i == 0 {
			t.root = &node{
				mbr:      n.mbr.Union(sib.mbr),
				children: []*node{n, sib},
				gen:      t.gen,
			}
			return
		}
		parent := path[i-1]
		parent.children = append(parent.children, sib)
		parent.mbr = parent.mbr.Union(sib.mbr)
	}
}

// count returns the entry count of n (items for leaves, children for
// internal nodes).
func (n *node) count() int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.children)
}

func (n *node) rectAt(i int) geom.Rect {
	if n.leaf {
		return n.items[i].Rect
	}
	return n.children[i].mbr
}

// splitNode performs Guttman's quadratic split, mutating n to hold one
// group and returning a new sibling holding the other.
func (t *Tree) splitNode(n *node) *node {
	cnt := n.count()
	// Pick seeds: the pair wasting the most area.
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < cnt; i++ {
		for j := i + 1; j < cnt; j++ {
			ri, rj := n.rectAt(i), n.rectAt(j)
			waste := ri.Union(rj).Area() - ri.Area() - rj.Area()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	groupA := []int{seedA}
	groupB := []int{seedB}
	mbrA, mbrB := n.rectAt(seedA), n.rectAt(seedB)
	assigned := make([]bool, cnt)
	assigned[seedA], assigned[seedB] = true, true
	remaining := cnt - 2

	for remaining > 0 {
		// Force-assign when one group must take everything left to
		// reach minimum fill.
		if len(groupA)+remaining == t.minEntries {
			for i := 0; i < cnt; i++ {
				if !assigned[i] {
					assigned[i] = true
					groupA = append(groupA, i)
					mbrA = mbrA.Union(n.rectAt(i))
				}
			}
			remaining = 0
			break
		}
		if len(groupB)+remaining == t.minEntries {
			for i := 0; i < cnt; i++ {
				if !assigned[i] {
					assigned[i] = true
					groupB = append(groupB, i)
					mbrB = mbrB.Union(n.rectAt(i))
				}
			}
			remaining = 0
			break
		}
		// PickNext: entry with max preference for one group.
		bestIdx, bestDiff := -1, -1.0
		var bestToA bool
		for i := 0; i < cnt; i++ {
			if assigned[i] {
				continue
			}
			r := n.rectAt(i)
			dA := enlargement(mbrA, r)
			dB := enlargement(mbrB, r)
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
				bestToA = dA < dB ||
					(dA == dB && mbrA.Area() < mbrB.Area()) ||
					(dA == dB && mbrA.Area() == mbrB.Area() && len(groupA) <= len(groupB))
			}
		}
		assigned[bestIdx] = true
		if bestToA {
			groupA = append(groupA, bestIdx)
			mbrA = mbrA.Union(n.rectAt(bestIdx))
		} else {
			groupB = append(groupB, bestIdx)
			mbrB = mbrB.Union(n.rectAt(bestIdx))
		}
		remaining--
	}

	sib := &node{leaf: n.leaf, gen: t.gen}
	if n.leaf {
		oldItems := n.items
		n.items = make([]Item, 0, len(groupA))
		for _, i := range groupA {
			n.items = append(n.items, oldItems[i])
		}
		sib.items = make([]Item, 0, len(groupB))
		for _, i := range groupB {
			sib.items = append(sib.items, oldItems[i])
		}
	} else {
		oldChildren := n.children
		n.children = make([]*node, 0, len(groupA))
		for _, i := range groupA {
			n.children = append(n.children, oldChildren[i])
		}
		sib.children = make([]*node, 0, len(groupB))
		for _, i := range groupB {
			sib.children = append(sib.children, oldChildren[i])
		}
	}
	n.mbr, sib.mbr = mbrA, mbrB
	return sib
}

func recomputeMBR(n *node) geom.Rect {
	if n.count() == 0 {
		return geom.Rect{}
	}
	mbr := n.rectAt(0)
	for i := 1; i < n.count(); i++ {
		mbr = mbr.Union(n.rectAt(i))
	}
	return mbr
}

// Delete removes one item matching id whose stored rectangle equals r.
// It returns false when no such item exists. Orphaned entries from
// underfull nodes are reinserted (Guttman's CondenseTree).
func (t *Tree) Delete(id int64, r geom.Rect) bool {
	var idxs []int
	j := findLeaf(t.root, id, r, &idxs)
	if j < 0 {
		return false
	}
	n := t.own(t.root)
	t.root = n
	path := append(make([]*node, 0, len(idxs)+1), n)
	for _, i := range idxs {
		c := t.own(n.children[i])
		n.children[i] = c
		path = append(path, c)
		n = c
	}
	n.items = append(n.items[:j], n.items[j+1:]...)
	t.size--
	t.condense(path)
	return true
}

// findLeaf returns the index of the item matching (id, r) in its leaf,
// or -1, and appends to idxs the child index taken at each level on the
// way down to that leaf.
func findLeaf(n *node, id int64, r geom.Rect, idxs *[]int) int {
	if !n.mbr.Intersects(r) && n.count() > 0 {
		return -1
	}
	if n.leaf {
		for i, it := range n.items {
			if it.ID == id && it.Rect == r {
				return i
			}
		}
		return -1
	}
	for i, c := range n.children {
		*idxs = append(*idxs, i)
		if j := findLeaf(c, id, r, idxs); j >= 0 {
			return j
		}
		*idxs = (*idxs)[:len(*idxs)-1]
	}
	return -1
}

// condense removes underfull nodes on the owned root-to-leaf path of
// the just-modified leaf, collecting their surviving entries for
// reinsertion, then shrinks the root if it has a single child. It
// recomputes the MBRs along the path and at the root; nodes off the
// path are untouched, and Insert keeps the MBRs exact for the
// reinserted orphans, so every node's MBR stays the union of its
// entries (checkInvariants).
func (t *Tree) condense(path []*node) {
	var orphans []Item
	for i := len(path) - 1; i > 0; i-- {
		n, parent := path[i], path[i-1]
		if n.count() < t.minEntries {
			// Remove n from parent, orphan its items.
			for k, c := range parent.children {
				if c == n {
					parent.children = append(parent.children[:k], parent.children[k+1:]...)
					break
				}
			}
			collectItems(n, &orphans)
		} else {
			n.mbr = recomputeMBR(n)
		}
	}
	t.root.mbr = recomputeMBR(t.root)
	// Shrink the root while it is an internal node with one child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true, gen: t.gen}
	}
	// Reinsert orphans (size was already decremented for the deleted
	// item only; orphans are still counted, so compensate).
	t.size -= len(orphans)
	for _, it := range orphans {
		t.Insert(it)
	}
}

func collectItems(n *node, out *[]Item) {
	if n.leaf {
		*out = append(*out, n.items...)
		return
	}
	for _, c := range n.children {
		collectItems(c, out)
	}
}

// Search returns all items whose rectangles intersect q. Order is
// unspecified.
func (t *Tree) Search(q geom.Rect) []Item {
	return t.SearchAppend(q, nil)
}

// SearchAppend appends all items intersecting q to buf and returns the
// extended slice. Passing buf[:0] of a retained buffer makes repeated
// range searches allocation-free once the buffer has grown to the
// working-set size; Search is SearchAppend with a nil buffer.
func (t *Tree) SearchAppend(q geom.Rect, buf []Item) []Item {
	t.SearchFunc(q, func(it Item) bool {
		buf = append(buf, it)
		return true
	})
	return buf
}

// SearchFunc streams all items intersecting q to fn; returning false
// from fn stops the search early.
func (t *Tree) SearchFunc(q geom.Rect, fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	searchNode(t.root, q, fn)
}

func searchNode(n *node, q geom.Rect, fn func(Item) bool) bool {
	if !n.mbr.Intersects(q) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Rect.Intersects(q) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchNode(c, q, fn) {
			return false
		}
	}
	return true
}

// Count returns the number of items intersecting q without
// materializing them.
func (t *Tree) Count(q geom.Rect) int {
	n := 0
	t.SearchFunc(q, func(Item) bool { n++; return true })
	return n
}

// Neighbor is a nearest-neighbor result: the item and its distance
// under the chosen metric.
type Neighbor struct {
	Item Item
	Dist float64
}

// Nearest returns the single nearest item to q under metric m, and
// false when the tree is empty.
func (t *Tree) Nearest(q geom.Point, m Metric) (Neighbor, bool) {
	ns := t.NearestK(q, 1, m)
	if len(ns) == 0 {
		return Neighbor{}, false
	}
	return ns[0], true
}

// NearestK returns the k items nearest to q under metric m in
// ascending distance order (fewer if the tree holds fewer). It runs a
// best-first search over the tree: node MBRs are ranked by min-dist,
// which lower-bounds both metrics (for MaxDist, a degenerate rectangle
// at the nearest point of the MBR attains min-dist), so the search is
// admissible and terminates as soon as k items are closer than the
// best unexplored node.
func (t *Tree) NearestK(q geom.Point, k int, m Metric) []Neighbor {
	return t.nearestK(q, k, m, nil, nil, true)
}

// NearestKInto is NearestK with caller-owned scratch: the heap h (nil
// allocates a private one) and the result slice out are reused, so a
// caller that retains both across queries pays no allocations once
// they have grown to the working-set size. out is truncated to out[:0]
// before use; the returned slice aliases its backing array.
func (t *Tree) NearestKInto(q geom.Point, k int, m Metric, h *NNHeap, out []Neighbor) []Neighbor {
	return t.nearestK(q, k, m, h, out, true)
}

// nearestK is the shared best-first search. When prune is set, leaf
// items and child nodes whose metric distance (resp. min-dist lower
// bound) already exceeds the current k-th best are never pushed: the
// k-th best distance only decreases as results accumulate, so an entry
// beyond it can never enter the final top k. The pruned and unpruned
// searches return identical results (asserted by TestNearestKPruning).
func (t *Tree) nearestK(q geom.Point, k int, m Metric, h *NNHeap, out []Neighbor, prune bool) []Neighbor {
	if out != nil {
		out = out[:0]
	}
	if k <= 0 || t.size == 0 {
		return out
	}
	if h == nil {
		h = &NNHeap{}
	}
	h.reset()
	kth := math.Inf(1)
	h.push(nnEntry{dist: q.MinDistRect(t.root.mbr), node: t.root})
	for h.Len() > 0 {
		e := h.pop()
		if len(out) == k && e.dist > out[len(out)-1].Dist {
			break
		}
		if e.node == nil {
			// A concrete item surfaced: its metric distance is exact.
			out = insertNeighbor(out, Neighbor{Item: e.item, Dist: e.dist}, k)
			if len(out) == k {
				kth = out[k-1].Dist
			}
			continue
		}
		n := e.node
		if n.leaf {
			for _, it := range n.items {
				d := m.DistTo(q, it.Rect)
				if prune && d > kth {
					continue
				}
				h.push(nnEntry{dist: d, item: it})
			}
		} else {
			for _, c := range n.children {
				d := q.MinDistRect(c.mbr)
				if prune && d > kth {
					continue
				}
				h.push(nnEntry{dist: d, node: c})
			}
		}
	}
	return out
}

// insertNeighbor inserts nb into the sorted slice keeping at most k.
func insertNeighbor(out []Neighbor, nb Neighbor, k int) []Neighbor {
	i := sort.Search(len(out), func(i int) bool { return out[i].Dist > nb.Dist })
	out = append(out, Neighbor{})
	copy(out[i+1:], out[i:])
	out[i] = nb
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// All returns every item in the tree in unspecified order.
func (t *Tree) All() []Item {
	var out []Item
	collectItems(t.root, &out)
	return out
}

// Clone returns a snapshot of the tree in O(1): the clone shares every
// node with t, and Item payloads (Data) are shared. Clone gives both
// trees fresh write tokens, so every existing node becomes read-only to
// both, and a later write to either copies the O(height) nodes on its
// path instead of touching the other tree. This is what makes
// read-copy-update snapshot publication cheap (internal/server clones
// the published tree, applies a write batch, and publishes the result
// while readers keep traversing the original lock-free).
//
// Clone writes t's token, so it must not run concurrently with a write
// to t; it may run concurrently with reads of t.
func (t *Tree) Clone() *Tree {
	t.gen = nextGen()
	return &Tree{
		root:       t.root,
		size:       t.size,
		maxEntries: t.maxEntries,
		minEntries: t.minEntries,
		gen:        nextGen(),
	}
}

// BulkLoad builds a tree from items using Sort-Tile-Recursive packing,
// which produces a tighter tree than repeated insertion and costs
// O(n log n). The input slice is not retained but is reordered.
func BulkLoad(items []Item) *Tree {
	return BulkLoadWithCapacity(items, defaultMaxEntries)
}

// BulkLoadWithCapacity is BulkLoad with an explicit node capacity.
func BulkLoadWithCapacity(items []Item, maxEntries int) *Tree {
	t := NewWithCapacity(maxEntries)
	if len(items) == 0 {
		return t
	}
	for _, it := range items {
		if !it.Rect.IsValid() {
			panic(fmt.Sprintf("rtree: bulk loading invalid rect %v", it.Rect))
		}
	}
	leaves := strPackLeaves(items, maxEntries, t.gen)
	t.size = len(items)
	level := leaves
	for len(level) > 1 {
		level = strPackNodes(level, maxEntries, t.gen)
	}
	t.root = level[0]
	return t
}

// Typed sort.Sort adapters for the STR packing passes. sort.Slice
// closes over the slice and allocates both the closure and an
// interface header per call; these fixed types sort with zero
// allocations, which matters because strPackLeaves sorts every strip.
type itemsByCenterX []Item

func (s itemsByCenterX) Len() int           { return len(s) }
func (s itemsByCenterX) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s itemsByCenterX) Less(i, j int) bool { return s[i].Rect.Center().X < s[j].Rect.Center().X }

type itemsByCenterY []Item

func (s itemsByCenterY) Len() int           { return len(s) }
func (s itemsByCenterY) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s itemsByCenterY) Less(i, j int) bool { return s[i].Rect.Center().Y < s[j].Rect.Center().Y }

type nodesByCenterX []*node

func (s nodesByCenterX) Len() int           { return len(s) }
func (s nodesByCenterX) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s nodesByCenterX) Less(i, j int) bool { return s[i].mbr.Center().X < s[j].mbr.Center().X }

type nodesByCenterY []*node

func (s nodesByCenterY) Len() int           { return len(s) }
func (s nodesByCenterY) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s nodesByCenterY) Less(i, j int) bool { return s[i].mbr.Center().Y < s[j].mbr.Center().Y }

func strPackLeaves(items []Item, cap_ int, gen uint64) []*node {
	n := len(items)
	numLeaves := (n + cap_ - 1) / cap_
	numStrips := intSqrtCeil(numLeaves)
	sort.Sort(itemsByCenterX(items))
	perStrip := (n + numStrips - 1) / numStrips
	var leaves []*node
	for s := 0; s < n; s += perStrip {
		e := min(s+perStrip, n)
		strip := items[s:e]
		sort.Sort(itemsByCenterY(strip))
		for i := 0; i < len(strip); i += cap_ {
			j := min(i+cap_, len(strip))
			leaf := &node{leaf: true, items: append([]Item(nil), strip[i:j]...), gen: gen}
			leaf.mbr = recomputeMBR(leaf)
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func strPackNodes(nodes []*node, cap_ int, gen uint64) []*node {
	n := len(nodes)
	numParents := (n + cap_ - 1) / cap_
	numStrips := intSqrtCeil(numParents)
	sort.Sort(nodesByCenterX(nodes))
	perStrip := (n + numStrips - 1) / numStrips
	var parents []*node
	for s := 0; s < n; s += perStrip {
		e := min(s+perStrip, n)
		strip := nodes[s:e]
		sort.Sort(nodesByCenterY(strip))
		for i := 0; i < len(strip); i += cap_ {
			j := min(i+cap_, len(strip))
			p := &node{children: append([]*node(nil), strip[i:j]...), gen: gen}
			p.mbr = recomputeMBR(p)
			parents = append(parents, p)
		}
	}
	return parents
}

func intSqrtCeil(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Stats describes the shape of the tree; useful in tests and for
// tuning.
type Stats struct {
	Height     int
	Nodes      int
	Leaves     int
	Items      int
	AvgLeafOcc float64
}

// Stats computes tree-shape statistics.
func (t *Tree) Stats() Stats {
	var s Stats
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.leaf {
			s.Leaves++
			s.Items += len(n.items)
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 1)
	if s.Leaves > 0 {
		s.AvgLeafOcc = float64(s.Items) / float64(s.Leaves)
	}
	return s
}

// checkInvariants validates structural invariants; it is exported to
// the package tests via export_test.go.
func (t *Tree) checkInvariants() error {
	itemCount := 0
	var walk func(n *node, isRoot bool, depth int) (int, error)
	walk = func(n *node, isRoot bool, depth int) (int, error) {
		if n.count() == 0 && !isRoot {
			return 0, fmt.Errorf("empty non-root node at depth %d", depth)
		}
		if !isRoot && n.count() < t.minEntries {
			return 0, fmt.Errorf("underfull node (%d < %d) at depth %d", n.count(), t.minEntries, depth)
		}
		if n.count() > t.maxEntries {
			return 0, fmt.Errorf("overfull node (%d > %d) at depth %d", n.count(), t.maxEntries, depth)
		}
		// Delete relies on this: no pass ever re-tightens MBRs off the
		// mutated path, so they must be exact, not merely covering.
		if n.count() > 0 && n.mbr != recomputeMBR(n) {
			return 0, fmt.Errorf("node MBR %v != union of its entries %v at depth %d", n.mbr, recomputeMBR(n), depth)
		}
		if n.leaf {
			for _, it := range n.items {
				if !n.mbr.ContainsRect(it.Rect) {
					return 0, fmt.Errorf("leaf MBR %v misses item %v", n.mbr, it.Rect)
				}
			}
			itemCount += len(n.items)
			return depth, nil
		}
		if len(n.items) != 0 {
			return 0, fmt.Errorf("internal node holds items")
		}
		leafDepth := -1
		for _, c := range n.children {
			if !n.mbr.ContainsRect(c.mbr) {
				return 0, fmt.Errorf("node MBR %v misses child %v", n.mbr, c.mbr)
			}
			d, err := walk(c, false, depth+1)
			if err != nil {
				return 0, err
			}
			if leafDepth == -1 {
				leafDepth = d
			} else if leafDepth != d {
				return 0, fmt.Errorf("unbalanced: leaves at depths %d and %d", leafDepth, d)
			}
		}
		return leafDepth, nil
	}
	if _, err := walk(t.root, true, 1); err != nil {
		return err
	}
	if itemCount != t.size {
		return fmt.Errorf("size %d != counted items %d", t.size, itemCount)
	}
	return nil
}

// nnEntry is one element of the best-first frontier: either a node
// (ranked by min-dist lower bound) or a concrete item (exact metric
// distance).
type nnEntry struct {
	dist float64
	node *node
	item Item
}

// NNHeap is the priority queue of the best-first nearest-neighbor
// search, exported so callers of NearestKInto can own and reuse it
// across queries: the backing array survives between searches, making
// repeated k-NN probes allocation-free. The zero value is ready to
// use. It is a binary min-heap hand-rolled to avoid the interface
// boxing of container/heap on this hot path.
type NNHeap struct {
	es []nnEntry
}

// Len returns the number of queued entries.
func (h *NNHeap) Len() int { return len(h.es) }

// reset empties the heap, keeping its capacity.
func (h *NNHeap) reset() { h.es = h.es[:0] }

func (h *NNHeap) push(e nnEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.es[parent].dist <= h.es[i].dist {
			break
		}
		h.es[parent], h.es[i] = h.es[i], h.es[parent]
		i = parent
	}
}

func (h *NNHeap) pop() nnEntry {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.es) && h.es[l].dist < h.es[smallest].dist {
			smallest = l
		}
		if r < len(h.es) && h.es[r].dist < h.es[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.es[i], h.es[smallest] = h.es[smallest], h.es[i]
		i = smallest
	}
	return top
}
