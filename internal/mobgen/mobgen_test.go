package mobgen

import (
	"math"
	"testing"

	"casper/internal/geom"
	"casper/internal/roadnet"
)

func testNet(t *testing.T) *roadnet.Graph {
	t.Helper()
	return roadnet.SyntheticHennepin(1, roadnet.SyntheticHennepinConfig{
		Extent: 10000, GridN: 8, ArterialEvery: 4, Jitter: 0.2,
	})
}

func TestNewValidation(t *testing.T) {
	g := testNet(t)
	for _, cfg := range []Config{
		{NumObjects: 0, Seed: 1},
		{NumObjects: 10, Seed: 1, CenterBias: 1.0},
		{NumObjects: 10, Seed: 1, CenterBias: -0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(g, cfg)
		}()
	}
}

func TestInitialPositionsOnNetwork(t *testing.T) {
	g := testNet(t)
	gen := New(g, DefaultConfig(200, 5))
	if gen.NumObjects() != 200 {
		t.Fatalf("NumObjects = %d", gen.NumObjects())
	}
	b := g.Bounds()
	for _, u := range gen.Positions() {
		if !b.Contains(u.Pos) {
			t.Fatalf("object %d spawned outside bounds: %v", u.ID, u.Pos)
		}
	}
}

func TestStepMovesObjects(t *testing.T) {
	g := testNet(t)
	gen := New(g, DefaultConfig(100, 7))
	before := gen.Positions()
	after := gen.Step(10) // 10 seconds
	moved := 0
	for i := range after {
		if after[i].ID != before[i].ID {
			t.Fatal("ID order changed")
		}
		d := after[i].Pos.Dist(before[i].Pos)
		if d > 0 {
			moved++
		}
		// In 10s no object can travel faster than the freeway's
		// maximum with jitter: 29 * 1.2 * 10 = 348m straight line.
		if d > 29*1.2*10+1e-6 {
			t.Fatalf("object %d teleported %vm in 10s", after[i].ID, d)
		}
	}
	if moved < 90 {
		t.Fatalf("only %d/100 objects moved", moved)
	}
}

func TestStepIntoReusesBuffer(t *testing.T) {
	g := testNet(t)
	a := New(g, DefaultConfig(100, 7))
	b := New(g, DefaultConfig(100, 7))
	buf := make([]Update, 0, a.NumObjects())
	for tick := 0; tick < 5; tick++ {
		want := a.Step(2)
		buf = b.StepInto(2, buf)
		if len(buf) != len(want) {
			t.Fatalf("tick %d: StepInto returned %d updates, Step %d", tick, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("tick %d: update %d differs: %+v vs %+v", tick, i, buf[i], want[i])
			}
		}
		if cap(buf) != a.NumObjects() {
			t.Fatalf("buffer reallocated: cap %d", cap(buf))
		}
	}
	snap := b.PositionsInto(buf)
	if len(snap) != b.NumObjects() || cap(snap) != b.NumObjects() {
		t.Fatalf("PositionsInto: len %d cap %d", len(snap), cap(snap))
	}
}

func TestStepPanicsOnBadDt(t *testing.T) {
	g := testNet(t)
	gen := New(g, DefaultConfig(5, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gen.Step(0)
}

func TestObjectsStayInBoundsOverTime(t *testing.T) {
	g := testNet(t)
	gen := New(g, DefaultConfig(100, 11))
	b := g.Bounds()
	for step := 0; step < 200; step++ {
		for _, u := range gen.Step(5) {
			if !b.Expand(1e-6).Contains(u.Pos) {
				t.Fatalf("step %d: object %d left bounds: %v", step, u.ID, u.Pos)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := testNet(t)
	a := New(g, DefaultConfig(50, 42))
	b := New(g, DefaultConfig(50, 42))
	for step := 0; step < 20; step++ {
		ua, ub := a.Step(3), b.Step(3)
		for i := range ua {
			if ua[i] != ub[i] {
				t.Fatalf("step %d object %d diverged: %v vs %v", step, i, ua[i], ub[i])
			}
		}
	}
	c := New(g, DefaultConfig(50, 43))
	uc := c.Step(3)
	ua := a.Step(3)
	identical := true
	for i := range ua {
		if ua[i] != uc[i] {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("different seeds gave identical traces")
	}
}

func TestCenterBiasSkewsDensity(t *testing.T) {
	g := testNet(t)
	b := g.Bounds()
	centerBox := geom.R(
		b.Min.X+b.Width()*0.25, b.Min.Y+b.Height()*0.25,
		b.Max.X-b.Width()*0.25, b.Max.Y-b.Height()*0.25,
	)
	countIn := func(cfg Config) int {
		gen := New(g, cfg)
		n := 0
		for _, u := range gen.Positions() {
			if centerBox.Contains(u.Pos) {
				n++
			}
		}
		return n
	}
	uniform := countIn(Config{NumObjects: 2000, Seed: 3, CenterBias: 0})
	biased := countIn(Config{NumObjects: 2000, Seed: 3, CenterBias: 0.9})
	if biased <= uniform {
		t.Fatalf("center bias had no effect: uniform=%d biased=%d", uniform, biased)
	}
}

func TestLongRunKeepsRouting(t *testing.T) {
	// Objects must keep getting fresh routes and never wedge: over a
	// long horizon, displacement from the start should be nonzero for
	// nearly all objects at some point.
	g := testNet(t)
	gen := New(g, DefaultConfig(50, 13))
	start := gen.Positions()
	everMoved := make([]bool, 50)
	for step := 0; step < 500; step++ {
		for i, u := range gen.Step(10) {
			if u.Pos.Dist(start[i].Pos) > 100 {
				everMoved[i] = true
			}
		}
	}
	stuck := 0
	for _, m := range everMoved {
		if !m {
			stuck++
		}
	}
	if stuck > 2 {
		t.Fatalf("%d/50 objects never moved more than 100m", stuck)
	}
}

func TestUniformPoints(t *testing.T) {
	r := geom.R(10, 20, 110, 220)
	pts := UniformPoints(r, 5000, 9)
	if len(pts) != 5000 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("point %v outside %v", p, r)
		}
	}
	// Rough uniformity: each quadrant holds 25% ± 5%.
	c := r.Center()
	quad := [4]int{}
	for _, p := range pts {
		i := 0
		if p.X > c.X {
			i |= 1
		}
		if p.Y > c.Y {
			i |= 2
		}
		quad[i]++
	}
	for i, n := range quad {
		frac := float64(n) / 5000
		if math.Abs(frac-0.25) > 0.05 {
			t.Fatalf("quadrant %d holds %.1f%%", i, frac*100)
		}
	}
	// Deterministic per seed.
	pts2 := UniformPoints(r, 5000, 9)
	for i := range pts {
		if pts[i] != pts2[i] {
			t.Fatal("same seed gave different points")
		}
	}
}

func TestUniformRects(t *testing.T) {
	r := geom.R(0, 0, 1000, 1000)
	rects := UniformRects(r, 2000, 100, 6400, 4)
	if len(rects) != 2000 {
		t.Fatalf("len = %d", len(rects))
	}
	for i, rc := range rects {
		if !rc.IsValid() {
			t.Fatalf("rect %d invalid: %v", i, rc)
		}
		if !r.ContainsRect(rc) {
			t.Fatalf("rect %d outside universe: %v", i, rc)
		}
		// Clipping can shrink the area, but it can never exceed the max.
		if rc.Area() > 6400+1e-9 {
			t.Fatalf("rect %d area %v above max", i, rc.Area())
		}
	}
}

func TestUniformRectsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UniformRects(geom.R(0, 0, 1, 1), 1, 0, 10, 1)
}
