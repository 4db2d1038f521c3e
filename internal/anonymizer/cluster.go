package anonymizer

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// Cluster is safe for concurrent use: cloaks run under a read lock,
// mutations under the write lock. The lock guards both the uid index
// and the per-leaf-cell buckets that drive the ring search.
type Cluster struct {
	grid     pyramid.Grid
	universe geom.Rect
	cellW    float64 // leaf cell width
	cellH    float64 // leaf cell height
	side     int     // leaf cells per axis

	// minK floors every profile's k during group formation; 0 = none.
	minK atomic.Int64

	mu    sync.RWMutex
	users map[UserID]*clusterEntry
	cells map[pyramid.CellID]map[UserID]*clusterEntry

	updates atomic.Int64
}

type clusterEntry struct {
	profile Profile
	pos     geom.Point
	leaf    pyramid.CellID
}

// NewCluster builds a clustering backend over the universe; levels
// sets the leaf-grid resolution of the ring search and the boundary
// snapping (same H as the pyramid backends, for a fair comparison).
func NewCluster(universe geom.Rect, levels int) *Cluster {
	grid := pyramid.NewGrid(universe, levels)
	side := 1 << grid.LowestLevel()
	u := grid.CellRect(pyramid.Root())
	return &Cluster{
		grid:     grid,
		universe: u,
		cellW:    u.Width() / float64(side),
		cellH:    u.Height() / float64(side),
		side:     side,
		users:    make(map[UserID]*clusterEntry),
		cells:    make(map[pyramid.CellID]map[UserID]*clusterEntry),
	}
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

// Name implements Anonymizer.
func (c *Cluster) Name() string { return "cluster" }

func (c *Cluster) addToCell(uid UserID, e *clusterEntry) {
	m := c.cells[e.leaf]
	if m == nil {
		m = make(map[UserID]*clusterEntry)
		c.cells[e.leaf] = m
	}
	m[uid] = e
	c.updates.Add(1)
}

func (c *Cluster) removeFromCell(uid UserID, e *clusterEntry) {
	if m := c.cells[e.leaf]; m != nil {
		delete(m, uid)
		if len(m) == 0 {
			delete(c.cells, e.leaf)
		}
	}
	c.updates.Add(1)
}

// Register implements Anonymizer.
func (c *Cluster) Register(uid UserID, p geom.Point, prof Profile) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.users[uid]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateUser, uid)
	}
	e := &clusterEntry{profile: prof, pos: p, leaf: c.grid.LeafAt(p)}
	c.users[uid] = e
	c.addToCell(uid, e)
	return nil
}

// Deregister implements Anonymizer.
func (c *Cluster) Deregister(uid UserID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.users[uid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	delete(c.users, uid)
	c.removeFromCell(uid, e)
	return nil
}

// Update implements Anonymizer.
func (c *Cluster) Update(uid UserID, p geom.Point) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.users[uid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	leaf := c.grid.LeafAt(p)
	if leaf != e.leaf {
		c.removeFromCell(uid, e)
		e.leaf = leaf
		e.pos = p
		c.addToCell(uid, e)
	} else {
		e.pos = p
		c.updates.Add(1)
	}
	return nil
}

// SetProfile implements Anonymizer.
func (c *Cluster) SetProfile(uid UserID, prof Profile) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.users[uid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	e.profile = prof
	return nil
}

// Cloak implements Anonymizer.
func (c *Cluster) Cloak(uid UserID) (CloakedRegion, error) {
	start := time.Now()
	c.mu.RLock()
	e, ok := c.users[uid]
	var cr CloakedRegion
	var err error
	if !ok {
		err = fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	} else {
		cr, err = c.cloakLocked(e.pos, e.profile)
	}
	c.mu.RUnlock()
	clusterCloakMetrics.observe(start, cr, err)
	return cr, err
}

// CloakAt implements Anonymizer.
func (c *Cluster) CloakAt(p geom.Point, prof Profile) (CloakedRegion, error) {
	start := time.Now()
	c.mu.RLock()
	cr, err := c.cloakLocked(p, prof)
	c.mu.RUnlock()
	clusterCloakMetrics.observe(start, cr, err)
	return cr, err
}

type groupCand struct {
	d   float64
	pos geom.Point
}

// cloakLocked forms the group and builds the region. Caller holds at
// least the read lock.
func (c *Cluster) cloakLocked(pos geom.Point, prof Profile) (CloakedRegion, error) {
	if err := prof.Validate(); err != nil {
		return CloakedRegion{}, err
	}
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
	center := c.grid.LeafAt(pos)
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
		KFound:     c.countInLocked(box),
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

// countInLocked counts registered users inside r. Caller holds at
// least the read lock. Only occupied cells are visited.
func (c *Cluster) countInLocked(r geom.Rect) int {
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

// Users implements Anonymizer.
func (c *Cluster) Users() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.users)
}

// Grid implements Anonymizer.
func (c *Cluster) Grid() pyramid.Grid { return c.grid }

// UpdateCost implements Anonymizer: cumulative leaf-bucket writes.
func (c *Cluster) UpdateCost() int64 { return c.updates.Load() }

// ResetUpdateCost implements Anonymizer.
func (c *Cluster) ResetUpdateCost() { c.updates.Store(0) }

// ForEachUser implements Anonymizer.
func (c *Cluster) ForEachUser(fn func(UserID, geom.Point, Profile) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for uid, e := range c.users {
		if !fn(uid, e.pos, e.profile) {
			return
		}
	}
}

// Profile returns the stored profile of a user.
func (c *Cluster) Profile(uid UserID) (Profile, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.users[uid]
	if !ok {
		return Profile{}, fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	return e.profile, nil
}

// Position returns the stored exact position of a user. Only the
// anonymizer (the trusted party) may see this.
func (c *Cluster) Position(uid UserID) (geom.Point, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.users[uid]
	if !ok {
		return geom.Point{}, fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	return e.pos, nil
}
