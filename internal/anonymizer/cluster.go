package anonymizer

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"casper/internal/geom"
	"casper/internal/pyramid"
)

// Cluster is a clustering (group-formation) cloaking backend in the
// style of Yao et al.: instead of snapping the user to a pyramid cell,
// it forms a group of the k nearest registered users around the
// requester and publishes the group's bounding box. The box is snapped
// outward to leaf grid-cell boundaries so region edges do not leak
// exact member positions, then inflated to the profile's Amin.
//
// Compared with the pyramid backends this typically yields much
// tighter regions (the group hugs the local population instead of
// rounding up to a power-of-4 cell), at the price of the paper's
// strict quality requirement: the region's extent is derived from
// where the k nearest users actually are, so it is data-dependent
// between cell boundaries. The comparison harness quantifies exactly
// this trade-off.
//
// The table's slot is each user's leaf cell; the leaf-cell buckets
// that drive the ring search sit under the table's lock.
type Cluster struct {
	table[pyramid.CellID]
	universe geom.Rect
	cellW    float64 // leaf cell width
	cellH    float64 // leaf cell height
	side     int     // leaf cells per axis

	// minK floors every profile's k during group formation; 0 = none.
	minK atomic.Int64

	cells map[pyramid.CellID]map[UserID]*cellEntry
}

// NewCluster builds a clustering backend over the universe; levels
// sets the leaf-grid resolution of the ring search and the boundary
// snapping (same H as the pyramid backends, for a fair comparison).
func NewCluster(universe geom.Rect, levels int) *Cluster {
	grid := pyramid.NewGrid(universe, levels)
	side := 1 << grid.LowestLevel()
	u := grid.CellRect(pyramid.Root())
	c := &Cluster{
		universe: u,
		cellW:    u.Width() / float64(side),
		cellH:    u.Height() / float64(side),
		side:     side,
		cells:    make(map[pyramid.CellID]map[UserID]*cellEntry),
	}
	c.init("cluster", grid, c)
	return c
}

// SetMinK sets (or with 0 clears) the group-size floor applied on top
// of every profile's k. It can change on a live backend (hot reload).
func (c *Cluster) SetMinK(k int) error {
	if k < 0 {
		return fmt.Errorf("anonymizer: cluster min k %d, need >= 1 (or 0 for no floor)", k)
	}
	c.minK.Store(int64(k))
	return nil
}

// MinK returns the current group-size floor (0 = none).
func (c *Cluster) MinK() int { return int(c.minK.Load()) }

// add puts a user in the bucket of her leaf cell.
func (c *Cluster) add(e *cellEntry) {
	e.slot = c.grid.LeafAt(e.pos)
	m := c.cells[e.slot]
	if m == nil {
		m = make(map[UserID]*cellEntry)
		c.cells[e.slot] = m
	}
	m[e.uid] = e
	c.updates++
}

// remove takes a user out of her leaf cell's bucket.
func (c *Cluster) remove(e *cellEntry) {
	if m := c.cells[e.slot]; m != nil {
		delete(m, e.uid)
		if len(m) == 0 {
			delete(c.cells, e.slot)
		}
	}
	c.updates++
}

// move re-buckets a user who crossed into another leaf cell.
func (c *Cluster) move(e *cellEntry, _ geom.Point) {
	if c.grid.LeafAt(e.pos) == e.slot {
		c.updates++
		return
	}
	c.remove(e)
	c.add(e)
}

// reprofile is a no-op: the buckets do not depend on profiles.
func (c *Cluster) reprofile(*cellEntry) {}

func (c *Cluster) at(p geom.Point) pyramid.CellID { return c.grid.LeafAt(p) }

type groupCand struct {
	d   float64
	pos geom.Point
}

// cloak forms the group around pos, in leaf cell center, and builds
// the region.
func (c *Cluster) cloak(pos geom.Point, center pyramid.CellID, prof Profile) (CloakedRegion, error) {
	k := prof.K
	if mk := int(c.minK.Load()); mk > k {
		k = mk
	}
	if len(c.users) < k || prof.AMin > c.universe.Area() {
		return CloakedRegion{}, fmt.Errorf("%w: k=%d Amin=%v (population %d, universe area %v)",
			ErrUnsatisfiable, k, prof.AMin, len(c.users), c.universe.Area())
	}

	// Expand square rings of leaf cells around the requester's cell
	// until the k nearest members provably lie inside the scanned
	// area: after completing ring r, every unseen user is at least
	// r*min(cellW,cellH) away.
	cellMin := math.Min(c.cellW, c.cellH)
	cands := make([]groupCand, 0, 4*k)
	rings := 0
	for r := 0; r < c.side; r++ {
		c.scanRing(center, r, pos, &cands)
		rings = r
		if len(cands) >= k {
			sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
			if cands[k-1].d <= float64(r)*cellMin {
				break
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })

	// Group bounding box; the requester's own position is always
	// included so the region contains the true location (inclusiveness
	// of the candidate list depends on it).
	box := geom.Rect{Min: pos, Max: pos}
	for _, gc := range cands[:k] {
		box = box.ExtendPoint(gc.pos)
	}
	box = c.snapToLeafCells(box)
	for i := 0; box.Area() < prof.AMin && i < 2*c.side; i++ {
		box = c.fitToUniverse(box.Expand(cellMin))
	}

	return CloakedRegion{
		Region:     box,
		Level:      -1,
		KFound:     c.countIn(box),
		KRequested: k,
		StepsUp:    rings,
	}, nil
}

// scanRing appends every registered user in the leaf cells at
// Chebyshev distance r from center (clipped to the grid) to cands.
func (c *Cluster) scanRing(center pyramid.CellID, r int, pos geom.Point, cands *[]groupCand) {
	appendCell := func(x, y int) {
		if x < 0 || y < 0 || x >= c.side || y >= c.side {
			return
		}
		cid := pyramid.CellID{Level: c.grid.LowestLevel(), X: x, Y: y}
		for _, e := range c.cells[cid] {
			*cands = append(*cands, groupCand{d: pos.Dist(e.pos), pos: e.pos})
		}
	}
	if r == 0 {
		appendCell(center.X, center.Y)
		return
	}
	for x := center.X - r; x <= center.X+r; x++ {
		appendCell(x, center.Y-r)
		appendCell(x, center.Y+r)
	}
	for y := center.Y - r + 1; y <= center.Y+r-1; y++ {
		appendCell(center.X-r, y)
		appendCell(center.X+r, y)
	}
}

// snapToLeafCells grows r outward to leaf grid-cell boundaries, so the
// published edges are grid lines rather than exact member positions.
func (c *Cluster) snapToLeafCells(r geom.Rect) geom.Rect {
	lo := c.grid.CellRect(c.grid.LeafAt(r.Min))
	hi := c.grid.CellRect(c.grid.LeafAt(r.Max))
	return lo.Union(hi)
}

// fitToUniverse translates r back inside the universe (preserving its
// size) and clips whatever still overhangs (r larger than the
// universe itself).
func (c *Cluster) fitToUniverse(r geom.Rect) geom.Rect {
	if dx := c.universe.Min.X - r.Min.X; dx > 0 {
		r.Min.X += dx
		r.Max.X += dx
	}
	if dy := c.universe.Min.Y - r.Min.Y; dy > 0 {
		r.Min.Y += dy
		r.Max.Y += dy
	}
	if dx := r.Max.X - c.universe.Max.X; dx > 0 {
		r.Min.X -= dx
		r.Max.X -= dx
	}
	if dy := r.Max.Y - c.universe.Max.Y; dy > 0 {
		r.Min.Y -= dy
		r.Max.Y -= dy
	}
	return r.ClipTo(c.universe)
}

// countIn counts registered users inside r. Only occupied cells are
// visited.
func (c *Cluster) countIn(r geom.Rect) int {
	n := 0
	for cid, m := range c.cells {
		if !c.grid.CellRect(cid).Intersects(r) {
			continue
		}
		for _, e := range m {
			if r.Contains(e.pos) {
				n++
			}
		}
	}
	return n
}
