package pyramid

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"casper/internal/geom"
)

func testGrid(levels int) Grid {
	return NewGrid(geom.R(0, 0, 1024, 1024), levels)
}

func TestCellIDParentChildRoundTrip(t *testing.T) {
	c := CellID{Level: 5, X: 13, Y: 27}
	for _, ch := range c.Children() {
		if ch.Parent() != c {
			t.Errorf("child %v parent = %v, want %v", ch, ch.Parent(), c)
		}
		if ch.Level != 6 {
			t.Errorf("child level = %d", ch.Level)
		}
	}
}

func TestRootProperties(t *testing.T) {
	r := Root()
	if !r.IsRoot() {
		t.Fatal("Root not IsRoot")
	}
	if r.Parent() != r {
		t.Fatal("root parent should be itself")
	}
	if _, ok := r.HorizontalNeighbor(); ok {
		t.Fatal("root has no horizontal neighbor")
	}
	if _, ok := r.VerticalNeighbor(); ok {
		t.Fatal("root has no vertical neighbor")
	}
}

func TestNeighborsShareParentAndRowColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		level := 1 + rng.Intn(8)
		n := 1 << level
		c := CellID{Level: level, X: rng.Intn(n), Y: rng.Intn(n)}
		h, ok := c.HorizontalNeighbor()
		if !ok {
			t.Fatal("missing horizontal neighbor")
		}
		if h.Parent() != c.Parent() {
			t.Fatalf("%v horizontal neighbor %v has different parent", c, h)
		}
		if h.Y != c.Y || h.X == c.X {
			t.Fatalf("%v horizontal neighbor %v not in same row", c, h)
		}
		v, ok := c.VerticalNeighbor()
		if !ok {
			t.Fatal("missing vertical neighbor")
		}
		if v.Parent() != c.Parent() {
			t.Fatalf("%v vertical neighbor %v has different parent", c, v)
		}
		if v.X != c.X || v.Y == c.Y {
			t.Fatalf("%v vertical neighbor %v not in same column", c, v)
		}
		// Neighbor relation is symmetric.
		if h2, _ := h.HorizontalNeighbor(); h2 != c {
			t.Fatalf("horizontal neighbor not symmetric: %v -> %v -> %v", c, h, h2)
		}
		if v2, _ := v.VerticalNeighbor(); v2 != c {
			t.Fatalf("vertical neighbor not symmetric")
		}
	}
}

func TestContainsCellAndAncestorAt(t *testing.T) {
	c := CellID{Level: 3, X: 5, Y: 2}
	deep := CellID{Level: 6, X: 5*8 + 3, Y: 2*8 + 7}
	if !c.ContainsCell(deep) {
		t.Fatal("ancestor does not contain descendant")
	}
	if deep.ContainsCell(c) {
		t.Fatal("descendant claims to contain ancestor")
	}
	if got := deep.AncestorAt(3); got != c {
		t.Fatalf("AncestorAt = %v, want %v", got, c)
	}
	if got := deep.AncestorAt(6); got != deep {
		t.Fatal("AncestorAt own level should be identity")
	}
	if !Root().ContainsCell(deep) {
		t.Fatal("root should contain everything")
	}
}

func TestAncestorAtPanicsBelowLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CellID{Level: 2, X: 1, Y: 1}.AncestorAt(3)
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[uint64]CellID{}
	for level := 0; level <= 6; level++ {
		n := 1 << level
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				c := CellID{Level: level, X: x, Y: y}
				if prev, dup := seen[c.Key()]; dup {
					t.Fatalf("key collision: %v and %v", prev, c)
				}
				seen[c.Key()] = c
			}
		}
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		c    CellID
		want bool
	}{
		{CellID{0, 0, 0}, true},
		{CellID{3, 7, 7}, true},
		{CellID{3, 8, 0}, false},
		{CellID{-1, 0, 0}, false},
		{CellID{2, 0, -1}, false},
		{CellID{MaxLevels, 0, 0}, false},
	}
	for _, c := range cases {
		if got := c.c.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v", c.c, got)
		}
	}
}

func TestNewGridValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(geom.R(0, 0, 1, 1), 0) },
		func() { NewGrid(geom.R(0, 0, 1, 1), MaxLevels+1) },
		func() { NewGrid(geom.R(0, 0, 0, 1), 5) }, // zero area
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCellAtBasics(t *testing.T) {
	g := testGrid(4) // levels 0..3, lowest level 3 has 8x8 cells of 128x128
	if g.LowestLevel() != 3 {
		t.Fatalf("LowestLevel = %d", g.LowestLevel())
	}
	c := g.CellAt(3, geom.Pt(0, 0))
	if c != (CellID{3, 0, 0}) {
		t.Fatalf("origin cell = %v", c)
	}
	c = g.CellAt(3, geom.Pt(1023.9, 1023.9))
	if c != (CellID{3, 7, 7}) {
		t.Fatalf("far corner cell = %v", c)
	}
	// Boundary point clamps into the last cell.
	c = g.CellAt(3, geom.Pt(1024, 1024))
	if c != (CellID{3, 7, 7}) {
		t.Fatalf("boundary cell = %v", c)
	}
	// Outside points clamp too.
	c = g.CellAt(3, geom.Pt(-5, 2000))
	if c != (CellID{3, 0, 7}) {
		t.Fatalf("outside cell = %v", c)
	}
	if got := g.CellAt(0, geom.Pt(512, 512)); got != Root() {
		t.Fatalf("level-0 cell = %v", got)
	}
}

func TestCellAtPanicsOnBadLevel(t *testing.T) {
	g := testGrid(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.CellAt(4, geom.Pt(0, 0))
}

func TestCellRectRoundTrip(t *testing.T) {
	g := testGrid(6)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		p := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
		level := rng.Intn(6)
		c := g.CellAt(level, p)
		r := g.CellRect(c)
		if !r.Contains(p) {
			t.Fatalf("cell rect %v does not contain %v (cell %v)", r, p, c)
		}
		// The leaf is always inside its ancestors' rects.
		leaf := g.LeafAt(p)
		if !c.ContainsCell(leaf) && level <= leaf.Level {
			t.Fatalf("cell %v at %v does not contain leaf %v", c, p, leaf)
		}
	}
}

func TestCellRectTiling(t *testing.T) {
	g := testGrid(3)
	// Children exactly tile their parent.
	parent := CellID{Level: 1, X: 1, Y: 0}
	pr := g.CellRect(parent)
	var area float64
	for _, ch := range parent.Children() {
		cr := g.CellRect(ch)
		if !pr.ContainsRect(cr) {
			t.Fatalf("child rect %v outside parent %v", cr, pr)
		}
		area += cr.Area()
	}
	if diff := area - pr.Area(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("children area %v != parent area %v", area, pr.Area())
	}
}

func TestCellArea(t *testing.T) {
	g := testGrid(6)
	total := g.Universe.Area()
	if g.CellArea(0) != total {
		t.Fatalf("root area = %v", g.CellArea(0))
	}
	for l := 1; l < 6; l++ {
		if got, want := g.CellArea(l), g.CellArea(l-1)/4; got != want {
			t.Fatalf("area at level %d = %v, want %v", l, got, want)
		}
	}
	if g.LeafArea() != g.CellArea(5) {
		t.Fatal("LeafArea mismatch")
	}
}

func TestCompleteAddRemove(t *testing.T) {
	g := testGrid(5)
	c := NewComplete(g)
	p := geom.Pt(100, 100)
	leaf := c.Add(p)
	if leaf != g.LeafAt(p) {
		t.Fatalf("Add returned %v", leaf)
	}
	if c.Total() != 1 {
		t.Fatalf("Total = %d", c.Total())
	}
	// Every ancestor of the leaf has count 1.
	for id := leaf; ; id = id.Parent() {
		if got := c.Count(id); got != 1 {
			t.Fatalf("count at %v = %d", id, got)
		}
		if id.IsRoot() {
			break
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	c.RemoveAt(leaf)
	if c.Total() != 0 || c.Count(Root()) != 0 {
		t.Fatalf("after remove: total=%d root=%d", c.Total(), c.Count(Root()))
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteRemoveAtNonLeafPanics(t *testing.T) {
	c := NewComplete(testGrid(5))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.RemoveAt(CellID{Level: 2, X: 0, Y: 0})
}

func TestCompleteMoveSameCellIsFree(t *testing.T) {
	g := testGrid(5)
	c := NewComplete(g)
	leaf := c.Add(geom.Pt(10, 10))
	c.ResetUpdates()
	got, changed := c.Move(leaf, geom.Pt(11, 11)) // same 64x64 cell
	if changed || got != leaf {
		t.Fatalf("Move within cell: changed=%v cell=%v", changed, got)
	}
	if c.Updates() != 0 {
		t.Fatalf("updates = %d, want 0", c.Updates())
	}
}

func TestCompleteMovePropagatesMinimally(t *testing.T) {
	g := testGrid(5) // leaf cells 64x64
	c := NewComplete(g)
	leaf := c.Add(geom.Pt(10, 10)) // cell (0,0)
	c.ResetUpdates()
	// Move to the adjacent leaf cell (1,0): paths diverge only at the
	// lowest two levels? (0,0)->(0,0) parent chain vs (1,0)->(0,0):
	// they converge at level 3 parent (0,0). Only level-4 counters
	// change: 2 updates.
	newLeaf, changed := c.Move(leaf, geom.Pt(70, 10))
	if !changed || newLeaf != (CellID{4, 1, 0}) {
		t.Fatalf("Move = %v, %v", newLeaf, changed)
	}
	if c.Updates() != 2 {
		t.Fatalf("adjacent move updates = %d, want 2", c.Updates())
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Move across the universe: paths diverge at every level below
	// root: 2*(levels-1) = 8 updates.
	c.ResetUpdates()
	_, _ = c.Move(newLeaf, geom.Pt(1000, 1000))
	if c.Updates() != 8 {
		t.Fatalf("far move updates = %d, want 8", c.Updates())
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteRandomChurnConsistency(t *testing.T) {
	g := testGrid(7)
	c := NewComplete(g)
	rng := rand.New(rand.NewSource(3))
	type user struct {
		leaf CellID
	}
	var users []user
	for round := 0; round < 5000; round++ {
		switch {
		case len(users) == 0 || rng.Float64() < 0.3:
			p := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
			users = append(users, user{leaf: c.Add(p)})
		case rng.Float64() < 0.2:
			i := rng.Intn(len(users))
			c.RemoveAt(users[i].leaf)
			users[i] = users[len(users)-1]
			users = users[:len(users)-1]
		default:
			i := rng.Intn(len(users))
			p := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
			leaf, _ := c.Move(users[i].leaf, p)
			users[i].leaf = leaf
		}
	}
	if c.Total() != len(users) {
		t.Fatalf("Total = %d, want %d", c.Total(), len(users))
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Leaf counts match a manual histogram.
	hist := map[CellID]int{}
	for _, u := range users {
		hist[u.leaf]++
	}
	for id, want := range hist {
		if got := c.Count(id); got != want {
			t.Fatalf("cell %v count %d, want %d", id, got, want)
		}
	}
}

func TestUpdatesAccounting(t *testing.T) {
	g := testGrid(4)
	c := NewComplete(g)
	c.Add(geom.Pt(1, 1))
	// Add touches one counter per level.
	if got := c.Updates(); got != int64(g.Levels) {
		t.Fatalf("Add updates = %d, want %d", got, g.Levels)
	}
	c.ResetUpdates()
	if c.Updates() != 0 {
		t.Fatal("ResetUpdates failed")
	}
}

func BenchmarkCompleteMove(b *testing.B) {
	g := NewGrid(geom.R(0, 0, 40000, 40000), 9)
	c := NewComplete(g)
	rng := rand.New(rand.NewSource(1))
	leaves := make([]CellID, 10000)
	for i := range leaves {
		leaves[i] = c.Add(geom.Pt(rng.Float64()*40000, rng.Float64()*40000))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % len(leaves)
		leaves[j], _ = c.Move(leaves[j], geom.Pt(rng.Float64()*40000, rng.Float64()*40000))
	}
}

// Property (testing/quick): parent/child and ancestor relations hold
// for arbitrary valid cells.
func TestCellIDPropertiesQuick(t *testing.T) {
	gen := func(values []reflect.Value, rng *rand.Rand) {
		level := 1 + rng.Intn(10)
		n := 1 << level
		values[0] = reflect.ValueOf(CellID{Level: level, X: rng.Intn(n), Y: rng.Intn(n)})
	}
	f := func(c CellID) bool {
		// Every child's parent is c, and c contains it.
		for _, ch := range c.Children() {
			if ch.Parent() != c || !c.ContainsCell(ch) {
				return false
			}
		}
		// Ancestor chain reaches the root and each step contains c.
		a := c
		for !a.IsRoot() {
			a = a.Parent()
			if !a.ContainsCell(c) {
				return false
			}
		}
		// AncestorAt inverts the parent chain.
		if c.Level >= 2 && c.AncestorAt(c.Level-2) != c.Parent().Parent() {
			return false
		}
		// Keys are stable and valid cells stay valid.
		return c.Valid() && c.Key() == c.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Values: gen}); err != nil {
		t.Error(err)
	}
}

// Property: CellAt and CellRect are mutually consistent at every level
// for arbitrary in-universe points.
func TestGridPropertiesQuick(t *testing.T) {
	g := testGrid(8)
	gen := func(values []reflect.Value, rng *rand.Rand) {
		values[0] = reflect.ValueOf(geom.Pt(rng.Float64()*1024, rng.Float64()*1024))
		values[1] = reflect.ValueOf(rng.Intn(8))
	}
	f := func(p geom.Point, level int) bool {
		c := g.CellAt(level, p)
		if !c.Valid() || c.Level != level {
			return false
		}
		r := g.CellRect(c)
		if !r.Contains(p) {
			return false
		}
		// Area matches the analytic cell area.
		return math.Abs(r.Area()-g.CellArea(level)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Values: gen}); err != nil {
		t.Error(err)
	}
}
