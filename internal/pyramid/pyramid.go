// Package pyramid implements the grid-based pyramid spatial
// decomposition underlying both Casper location anonymizers.
//
// The pyramid (Tanimoto & Pavlidis) hierarchically decomposes a square
// universe into H levels; the level at height h contains 4^h grid
// cells. The root (level 0) is a single cell covering the whole space.
// Each cell is identified by (level, x, y); a cell's horizontal
// neighbor is the sibling that shares its parent and row, and its
// vertical neighbor the sibling that shares its parent and column —
// exactly the neighbor notion of Algorithm 1 in the paper.
//
// Two structures are provided:
//
//   - Grid: pure cell geometry (point → cell hashing, cell → rectangle).
//   - Complete: the complete pyramid of the basic location anonymizer,
//     holding a user counter N per cell at every level, with counter
//     updates propagated to the root and an accounting of how many
//     counters each location update touches (the cost metric of
//     Figures 10b, 11b and 12b).
//
// The incomplete pyramid of the adaptive anonymizer builds on Grid but
// lives in internal/anonymizer, because its split/merge policy depends
// on user privacy profiles.
package pyramid

import (
	"fmt"

	"casper/internal/geom"
)

// MaxLevels bounds the pyramid height so cell coordinates pack into a
// uint64 key (6 bits of level, 29 bits per axis).
const MaxLevels = 29

// CellID identifies a pyramid cell: Level 0 is the root; at level L
// the grid is 2^L cells on each axis and X, Y in [0, 2^L).
type CellID struct {
	Level int
	X, Y  int
}

// String implements fmt.Stringer.
func (c CellID) String() string { return fmt.Sprintf("L%d(%d,%d)", c.Level, c.X, c.Y) }

// Root is the level-0 cell covering the whole universe.
func Root() CellID { return CellID{} }

// Parent returns the cell's parent at the next higher level. The root
// is its own parent; callers should test IsRoot first when that
// matters.
func (c CellID) Parent() CellID {
	if c.Level == 0 {
		return c
	}
	return CellID{Level: c.Level - 1, X: c.X >> 1, Y: c.Y >> 1}
}

// IsRoot reports whether c is the root cell.
func (c CellID) IsRoot() bool { return c.Level == 0 }

// Children returns the four child cells at the next lower level, in
// the order (2x,2y), (2x+1,2y), (2x,2y+1), (2x+1,2y+1).
func (c CellID) Children() [4]CellID {
	l, x, y := c.Level+1, c.X<<1, c.Y<<1
	return [4]CellID{
		{l, x, y}, {l, x + 1, y}, {l, x, y + 1}, {l, x + 1, y + 1},
	}
}

// HorizontalNeighbor returns the sibling sharing c's parent and row
// (the cell beside it on the X axis within the same quadrant).
// The root has no neighbors; ok is false there.
func (c CellID) HorizontalNeighbor() (CellID, bool) {
	if c.Level == 0 {
		return CellID{}, false
	}
	return CellID{Level: c.Level, X: c.X ^ 1, Y: c.Y}, true
}

// VerticalNeighbor returns the sibling sharing c's parent and column.
func (c CellID) VerticalNeighbor() (CellID, bool) {
	if c.Level == 0 {
		return CellID{}, false
	}
	return CellID{Level: c.Level, X: c.X, Y: c.Y ^ 1}, true
}

// ContainsCell reports whether d lies within c (d at an equal or
// deeper level whose ancestor at c's level is c).
func (c CellID) ContainsCell(d CellID) bool {
	if d.Level < c.Level {
		return false
	}
	shift := d.Level - c.Level
	return d.X>>shift == c.X && d.Y>>shift == c.Y
}

// AncestorAt returns c's ancestor at the given (higher or equal)
// level. It panics if level > c.Level.
func (c CellID) AncestorAt(level int) CellID {
	if level > c.Level {
		panic(fmt.Sprintf("pyramid: AncestorAt(%d) above cell level %d", level, c.Level))
	}
	shift := c.Level - level
	return CellID{Level: level, X: c.X >> shift, Y: c.Y >> shift}
}

// Key packs c into a uint64 suitable for map keys.
func (c CellID) Key() uint64 {
	return uint64(c.Level)<<58 | uint64(c.X)<<29 | uint64(c.Y)
}

// Valid reports whether c's coordinates are in range for its level.
func (c CellID) Valid() bool {
	if c.Level < 0 || c.Level >= MaxLevels {
		return false
	}
	n := 1 << c.Level
	return c.X >= 0 && c.X < n && c.Y >= 0 && c.Y < n
}

// Grid maps between the continuous universe and pyramid cells.
// Levels is the pyramid height H; the lowest (finest) level is
// Levels-1.
type Grid struct {
	Universe geom.Rect
	Levels   int
}

// NewGrid builds a Grid over the given square universe with the given
// number of levels (height H in the paper; H=9 in the experiments).
func NewGrid(universe geom.Rect, levels int) Grid {
	if levels < 1 || levels > MaxLevels {
		panic(fmt.Sprintf("pyramid: levels %d out of range [1,%d]", levels, MaxLevels))
	}
	if !universe.IsValid() || universe.Area() <= 0 {
		panic(fmt.Sprintf("pyramid: invalid universe %v", universe))
	}
	return Grid{Universe: universe, Levels: levels}
}

// LowestLevel returns the index of the finest level.
func (g Grid) LowestLevel() int { return g.Levels - 1 }

// CellAt returns the cell containing p at the given level. Points
// outside the universe are clamped to the boundary cell, keeping the
// mapping total (moving objects can graze the boundary due to
// floating-point error).
func (g Grid) CellAt(level int, p geom.Point) CellID {
	if level < 0 || level >= g.Levels {
		panic(fmt.Sprintf("pyramid: level %d out of range [0,%d)", level, g.Levels))
	}
	n := 1 << level
	fx := (p.X - g.Universe.Min.X) / g.Universe.Width() * float64(n)
	fy := (p.Y - g.Universe.Min.Y) / g.Universe.Height() * float64(n)
	return CellID{Level: level, X: clampInt(int(fx), 0, n-1), Y: clampInt(int(fy), 0, n-1)}
}

// LeafAt returns the lowest-level cell containing p.
func (g Grid) LeafAt(p geom.Point) CellID { return g.CellAt(g.LowestLevel(), p) }

// CellRect returns the spatial extent of cell c.
func (g Grid) CellRect(c CellID) geom.Rect {
	n := float64(int(1) << c.Level)
	w := g.Universe.Width() / n
	h := g.Universe.Height() / n
	x0 := g.Universe.Min.X + float64(c.X)*w
	y0 := g.Universe.Min.Y + float64(c.Y)*h
	return geom.R(x0, y0, x0+w, y0+h)
}

// CellArea returns the area of any cell at the given level.
func (g Grid) CellArea(level int) float64 {
	n := float64(int(1) << (2 * level))
	return g.Universe.Area() / n
}

// LeafArea returns the area of a lowest-level cell.
func (g Grid) LeafArea() float64 { return g.CellArea(g.LowestLevel()) }

// LevelForArea returns the deepest level whose cells have area >= a
// (level 0 when even the root is too small — the caller must handle
// unsatisfiable requirements). This is how the anonymizers translate
// an Amin requirement into a pyramid level.
func (g Grid) LevelForArea(a float64) int {
	for l := g.LowestLevel(); l > 0; l-- {
		if g.CellArea(l) >= a {
			return l
		}
	}
	return 0
}

// Complete is the complete pyramid of the basic location anonymizer:
// a user counter per cell at every level. Counter changes at the leaf
// level propagate to the root. Updates counts every counter
// increment/decrement performed, which is the per-location-update cost
// metric plotted in Figures 10b, 11b and 12b of the paper.
//
// Complete is not safe for concurrent use: its owner's lock (the basic
// anonymizer's RWMutex) guards it.
type Complete struct {
	grid    Grid
	counts  [][]int64 // counts[level][y<<level | x]
	total   int
	updates int64
}

// NewComplete builds an empty complete pyramid over the grid.
func NewComplete(grid Grid) *Complete {
	c := &Complete{grid: grid}
	c.counts = make([][]int64, grid.Levels)
	for l := 0; l < grid.Levels; l++ {
		c.counts[l] = make([]int64, 1<<(2*l))
	}
	return c
}

// Grid returns the underlying grid.
func (c *Complete) Grid() Grid { return c.grid }

// Total returns the number of users currently tracked.
func (c *Complete) Total() int { return c.total }

// Updates returns the cumulative number of cell-counter writes.
func (c *Complete) Updates() int64 { return c.updates }

// ResetUpdates zeroes the update accounting (used between experiment
// phases).
func (c *Complete) ResetUpdates() { c.updates = 0 }

func (c *Complete) idx(id CellID) int { return id.Y<<id.Level | id.X }

// Count returns the number of users within cell id.
func (c *Complete) Count(id CellID) int {
	return int(c.counts[id.Level][c.idx(id)])
}

// Add registers a user at point p, increments the counters of the leaf
// cell containing p and all its ancestors, and returns the leaf cell.
func (c *Complete) Add(p geom.Point) CellID {
	leaf := c.grid.LeafAt(p)
	c.addAlongPath(leaf, 1)
	c.total++
	return leaf
}

// RemoveAt unregisters a user previously assigned to leaf cell id.
func (c *Complete) RemoveAt(id CellID) {
	if id.Level != c.grid.LowestLevel() {
		panic(fmt.Sprintf("pyramid: RemoveAt on non-leaf cell %v", id))
	}
	c.addAlongPath(id, -1)
	c.total--
}

// Move handles a location update for a user currently in leaf cell
// old, now located at p. It returns the (possibly unchanged) leaf cell
// and whether any counters changed. Only the disjoint suffixes of the
// two root paths are touched: counters are decremented from old up to
// (but excluding) the lowest common ancestor, and incremented likewise
// from the new cell, mirroring the maintenance procedure of Sec. 4.1.
func (c *Complete) Move(old CellID, p geom.Point) (CellID, bool) {
	newLeaf := c.grid.LeafAt(p)
	if newLeaf == old {
		return old, false
	}
	// Walk both paths upward in lockstep until they converge.
	a, b := old, newLeaf
	for a != b {
		c.counts[a.Level][c.idx(a)]--
		c.counts[b.Level][c.idx(b)]++
		c.updates += 2
		a, b = a.Parent(), b.Parent()
		if a.Level == 0 && b.Level == 0 && a != b {
			panic("pyramid: paths failed to converge at root")
		}
	}
	return newLeaf, true
}

func (c *Complete) addAlongPath(leaf CellID, delta int64) {
	id := leaf
	for {
		c.counts[id.Level][c.idx(id)] += delta
		c.updates++
		if id.IsRoot() {
			return
		}
		id = id.Parent()
	}
}

// CheckConsistency verifies that every internal cell's count equals
// the sum of its children's counts and that the root count equals the
// total. It is O(cells) and intended for tests.
func (c *Complete) CheckConsistency() error {
	if got, want := c.Count(Root()), c.Total(); got != want {
		return fmt.Errorf("root count %d != total %d", got, want)
	}
	for l := 0; l < c.grid.Levels-1; l++ {
		n := 1 << l
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				id := CellID{Level: l, X: x, Y: y}
				sum := 0
				for _, ch := range id.Children() {
					sum += c.Count(ch)
				}
				if sum != c.Count(id) {
					return fmt.Errorf("cell %v count %d != children sum %d", id, c.Count(id), sum)
				}
			}
		}
	}
	return nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
