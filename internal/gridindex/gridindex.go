// Package gridindex implements a uniform-grid spatial index: the
// universe is tiled into fixed-size buckets, every stored rectangle is
// registered in each bucket it overlaps, range queries visit the
// buckets covering the query window, and nearest-neighbor queries
// expand a growing ring of buckets around the query point.
//
// It exists to make the Casper paper's modularity claim concrete: the
// privacy-aware query processor is "completely independent" of the
// spatial access method (Sec. 5.1.1). gridindex satisfies the same
// privacyqp.SpatialIndex contract as the R-tree, and the property
// tests in internal/privacyqp assert that the candidate lists are
// identical whichever index serves the query.
//
// Compared to the R-tree it trades memory for simplicity: uniform data
// (the paper's target layout) indexes beautifully; heavily skewed data
// degrades toward scanning. Not safe for concurrent mutation.
package gridindex

import (
	"fmt"
	"math"
	"sync"

	"casper/internal/geom"
	"casper/internal/rtree"
)

// Grid is the uniform grid index. Create with New.
type Grid struct {
	universe geom.Rect
	n        int     // buckets per axis
	cw, ch   float64 // bucket extent
	buckets  [][]entry
	size     int
}

type entry struct {
	item rtree.Item
	// owner marks the bucket responsible for counting the item (the
	// bucket of its rectangle's min corner), so multi-bucket items are
	// enumerated exactly once.
	owner bool
}

// New builds an empty index over the universe with n buckets per axis.
// It panics on a degenerate universe or n < 1.
func New(universe geom.Rect, n int) *Grid {
	if !universe.IsValid() || universe.Area() <= 0 {
		panic(fmt.Sprintf("gridindex: invalid universe %v", universe))
	}
	if n < 1 {
		panic(fmt.Sprintf("gridindex: n = %d", n))
	}
	return &Grid{
		universe: universe,
		n:        n,
		cw:       universe.Width() / float64(n),
		ch:       universe.Height() / float64(n),
		buckets:  make([][]entry, n*n),
	}
}

// Len returns the number of stored items.
func (g *Grid) Len() int { return g.size }

// cellOf maps a coordinate to a clamped bucket coordinate.
func (g *Grid) cellOf(v, min, extent float64) int {
	c := int((v - min) / extent)
	if c < 0 {
		return 0
	}
	if c >= g.n {
		return g.n - 1
	}
	return c
}

// span returns the inclusive bucket coordinate range covered by r.
func (g *Grid) span(r geom.Rect) (x0, y0, x1, y1 int) {
	x0 = g.cellOf(r.Min.X, g.universe.Min.X, g.cw)
	x1 = g.cellOf(r.Max.X, g.universe.Min.X, g.cw)
	y0 = g.cellOf(r.Min.Y, g.universe.Min.Y, g.ch)
	y1 = g.cellOf(r.Max.Y, g.universe.Min.Y, g.ch)
	return
}

func (g *Grid) bucket(x, y int) int { return y*g.n + x }

// Insert adds an item. Rectangles extending beyond the universe are
// clamped into the boundary buckets, so they remain findable.
func (g *Grid) Insert(it rtree.Item) {
	if !it.Rect.IsValid() {
		panic(fmt.Sprintf("gridindex: inserting invalid rect %v", it.Rect))
	}
	x0, y0, x1, y1 := g.span(it.Rect)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			b := g.bucket(x, y)
			g.buckets[b] = append(g.buckets[b], entry{
				item:  it,
				owner: x == x0 && y == y0,
			})
		}
	}
	g.size++
}

// Delete removes one item matching (id, rect); it reports whether one
// was found.
func (g *Grid) Delete(id int64, r geom.Rect) bool {
	x0, y0, x1, y1 := g.span(r)
	found := false
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			b := g.bucket(x, y)
			es := g.buckets[b]
			for i := range es {
				if es[i].item.ID == id && es[i].item.Rect == r {
					g.buckets[b] = append(es[:i], es[i+1:]...)
					found = true
					break
				}
			}
		}
	}
	if found {
		g.size--
	}
	return found
}

// Search returns all items intersecting r.
func (g *Grid) Search(r geom.Rect) []rtree.Item {
	return g.SearchAppend(r, nil)
}

// SearchAppend appends every item intersecting r to buf and returns the
// extended slice, letting callers reuse a scratch buffer across queries.
func (g *Grid) SearchAppend(r geom.Rect, buf []rtree.Item) []rtree.Item {
	g.SearchFunc(r, func(it rtree.Item) bool {
		buf = append(buf, it)
		return true
	})
	return buf
}

// SearchFunc streams items intersecting r to fn; returning false stops
// early. Items spanning multiple buckets are reported once.
func (g *Grid) SearchFunc(r geom.Rect, fn func(rtree.Item) bool) {
	if !r.IsValid() || g.size == 0 {
		return
	}
	x0, y0, x1, y1 := g.span(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, e := range g.buckets[g.bucket(x, y)] {
				if !e.item.Rect.Intersects(r) {
					continue
				}
				// Deduplicate: report the item from the first visited
				// bucket it occupies within the query window.
				ex0, ey0, _, _ := g.span(e.item.Rect)
				rx := max(ex0, x0)
				ry := max(ey0, y0)
				if rx != x || ry != y {
					continue
				}
				if !fn(e.item) {
					return
				}
			}
		}
	}
}

// All returns every stored item.
func (g *Grid) All() []rtree.Item {
	out := make([]rtree.Item, 0, g.size)
	for bi := range g.buckets {
		for _, e := range g.buckets[bi] {
			if e.owner {
				out = append(out, e.item)
			}
		}
	}
	return out
}

// Nearest returns the nearest item under the metric.
func (g *Grid) Nearest(q geom.Point, m rtree.Metric) (rtree.Neighbor, bool) {
	ns := g.NearestK(q, 1, m)
	if len(ns) == 0 {
		return rtree.Neighbor{}, false
	}
	return ns[0], true
}

// itemKey identifies one stored (id, rect) pair in the flat dedupe map
// used by the k-NN ring search. The nested map-of-maps it replaces
// allocated an inner map per distinct ID on every query; a flat map
// with a comparable composite key can be pooled and cleared instead.
type itemKey struct {
	id   int64
	rect geom.Rect
}

// seenPool recycles the k-NN dedupe maps across queries.
var seenPool = sync.Pool{
	New: func() any { return make(map[itemKey]int, 64) },
}

// NearestK returns the k nearest items in ascending metric order,
// equal distances by ascending ID (rtree.InsertNeighbor). The
// search expands square rings of buckets around the query point; it
// stops when the k-th best distance is closer than any unvisited ring
// can offer (ring min-distance lower-bounds both metrics, exactly as
// node min-dist does in the R-tree search).
func (g *Grid) NearestK(q geom.Point, k int, m rtree.Metric) []rtree.Neighbor {
	return g.nearestK(q, k, m, nil)
}

// NearestKInto is NearestK with a caller-owned result buffer, reused
// via out[:0]. The heap parameter exists to satisfy the
// privacyqp.SpatialIndex contract and is ignored: the grid expands
// bucket rings around the query point instead of walking a node heap.
func (g *Grid) NearestKInto(q geom.Point, k int, m rtree.Metric, _ *rtree.NNHeap, out []rtree.Neighbor) []rtree.Neighbor {
	return g.nearestK(q, k, m, out)
}

func (g *Grid) nearestK(q geom.Point, k int, m rtree.Metric, out []rtree.Neighbor) []rtree.Neighbor {
	if out != nil {
		out = out[:0]
	}
	if k <= 0 || g.size == 0 {
		return out
	}
	cx := g.cellOf(q.X, g.universe.Min.X, g.cw)
	cy := g.cellOf(q.Y, g.universe.Min.Y, g.ch)
	seen := seenPool.Get().(map[itemKey]int) // dedupe multi-bucket items
	defer func() {
		clear(seen)
		seenPool.Put(seen)
	}()
	kth := math.Inf(1)

	consider := func(it rtree.Item) {
		key := itemKey{id: it.ID, rect: it.Rect}
		if seen[key] > 0 {
			seen[key]--
			return
		}
		// Count multiplicity: the same (id, rect) may legitimately be
		// stored several times; treat each sighting of a new copy as a
		// distinct result, but skip re-sightings from other buckets.
		x0, y0, x1, y1 := g.span(it.Rect)
		copies := (x1 - x0 + 1) * (y1 - y0 + 1)
		seen[key] = copies - 1
		out = rtree.InsertNeighbor(out, rtree.Neighbor{Item: it, Dist: m.DistTo(q, it.Rect)}, k)
		if len(out) == k {
			kth = out[k-1].Dist
		}
	}

	maxRing := g.n // worst case covers the whole grid
	for ring := 0; ring <= maxRing; ring++ {
		// Lower bound on the distance from q to any bucket in this
		// ring: (ring-1) full bucket widths on the nearer axis.
		if ring > 0 {
			lb := float64(ring-1) * math.Min(g.cw, g.ch)
			if lb > kth {
				break
			}
		}
		g.visitRing(cx, cy, ring, func(b int) {
			for _, e := range g.buckets[b] {
				consider(e.item)
			}
		})
	}
	return out
}

// visitRing calls fn for each bucket on the square ring at Chebyshev
// distance ring from (cx, cy), clipped to the grid.
func (g *Grid) visitRing(cx, cy, ring int, fn func(bucket int)) {
	if ring == 0 {
		fn(g.bucket(cx, cy))
		return
	}
	x0, x1 := cx-ring, cx+ring
	y0, y1 := cy-ring, cy+ring
	for x := x0; x <= x1; x++ {
		if x < 0 || x >= g.n {
			continue
		}
		if y0 >= 0 {
			fn(g.bucket(x, y0))
		}
		if y1 < g.n {
			fn(g.bucket(x, y1))
		}
	}
	for y := y0 + 1; y < y1; y++ {
		if y < 0 || y >= g.n {
			continue
		}
		if x0 >= 0 {
			fn(g.bucket(x0, y))
		}
		if x1 < g.n {
			fn(g.bucket(x1, y))
		}
	}
}
