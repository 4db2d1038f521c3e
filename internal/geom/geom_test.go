package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := q.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d2 := Pt(0, 0).Dist2(Pt(3, 4)); d2 != 25 {
		t.Fatalf("Dist2 = %v, want 25", d2)
	}
}

func TestDist2ConsistentWithDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return almostEq(a.Dist(b)*a.Dist(b), a.Dist2(b))
	}
	cfg := &quick.Config{MaxCount: 200, Values: smallFloats(4)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMid(t *testing.T) {
	m := Pt(0, 0).Mid(Pt(2, 4))
	if m != Pt(1, 2) {
		t.Fatalf("Mid = %v", m)
	}
}

func TestRNormalizesCorners(t *testing.T) {
	r := R(5, 7, 1, 2)
	if r.Min != Pt(1, 2) || r.Max != Pt(5, 7) {
		t.Fatalf("R did not normalize: %v", r)
	}
}

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints(Pt(1, 5), Pt(-2, 3), Pt(0, 9))
	want := R(-2, 3, 1, 9)
	if r != want {
		t.Fatalf("RectFromPoints = %v, want %v", r, want)
	}
}

func TestRectFromPointsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	RectFromPoints()
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 4, 2)
	if r.Width() != 4 || r.Height() != 2 {
		t.Fatalf("extent = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 8 {
		t.Fatalf("Area = %v", r.Area())
	}
	if r.Perimeter() != 12 {
		t.Fatalf("Perimeter = %v", r.Perimeter())
	}
	if r.Center() != Pt(2, 1) {
		t.Fatalf("Center = %v", r.Center())
	}
	if !r.IsValid() {
		t.Fatal("IsValid = false")
	}
	if r.IsPoint() {
		t.Fatal("IsPoint = true for non-degenerate rect")
	}
	if p := (Rect{Min: Pt(1, 1), Max: Pt(1, 1)}); !p.IsPoint() {
		t.Fatal("IsPoint = false for degenerate rect")
	}
}

func TestRectIsValidRejectsNaNInf(t *testing.T) {
	bad := []Rect{
		{Min: Pt(math.NaN(), 0), Max: Pt(1, 1)},
		{Min: Pt(0, 0), Max: Pt(math.Inf(1), 1)},
		{Min: Pt(2, 0), Max: Pt(1, 1)},
	}
	for i, r := range bad {
		if r.IsValid() {
			t.Errorf("case %d: IsValid = true for %v", i, r)
		}
	}
}

func TestContains(t *testing.T) {
	r := R(0, 0, 2, 2)
	cases := []struct {
		p  Point
		in bool
	}{
		{Pt(1, 1), true},
		{Pt(0, 0), true}, // corner, boundary inclusive
		{Pt(2, 1), true}, // edge
		{Pt(3, 1), false},
		{Pt(1, -0.001), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.in {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.in)
		}
	}
}

func TestContainsRect(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !r.ContainsRect(R(1, 1, 9, 9)) {
		t.Error("inner rect should be contained")
	}
	if !r.ContainsRect(r) {
		t.Error("rect should contain itself")
	}
	if r.ContainsRect(R(5, 5, 11, 9)) {
		t.Error("overflowing rect should not be contained")
	}
}

func TestIntersect(t *testing.T) {
	a := R(0, 0, 2, 2)
	b := R(1, 1, 3, 3)
	in, ok := a.Intersect(b)
	if !ok || in != R(1, 1, 2, 2) {
		t.Fatalf("Intersect = %v, %v", in, ok)
	}
	// Touching rectangles intersect on the shared edge.
	c := R(2, 0, 4, 2)
	in, ok = a.Intersect(c)
	if !ok || in != R(2, 0, 2, 2) {
		t.Fatalf("touching Intersect = %v, %v", in, ok)
	}
	// Disjoint.
	if _, ok := a.Intersect(R(5, 5, 6, 6)); ok {
		t.Fatal("disjoint rects reported as intersecting")
	}
}

func TestUnion(t *testing.T) {
	a, b := R(0, 0, 1, 1), R(2, -1, 3, 0.5)
	if u := a.Union(b); u != R(0, -1, 3, 1) {
		t.Fatalf("Union = %v", u)
	}
}

func TestExpand(t *testing.T) {
	r := R(1, 1, 3, 3)
	if e := r.Expand(1); e != R(0, 0, 4, 4) {
		t.Fatalf("Expand = %v", e)
	}
	// Over-shrinking stays valid thanks to normalization.
	if e := r.Expand(-5); !e.IsValid() {
		t.Fatalf("over-shrunk rect invalid: %v", e)
	}
}

func TestExpandSides(t *testing.T) {
	r := R(10, 10, 20, 20)
	e := r.ExpandSides(1, 2, 3, 4)
	if e != R(9, 7, 22, 24) {
		t.Fatalf("ExpandSides = %v", e)
	}
}

func TestClipTo(t *testing.T) {
	u := R(0, 0, 10, 10)
	if c := R(-5, -5, 5, 5).ClipTo(u); c != R(0, 0, 5, 5) {
		t.Fatalf("ClipTo = %v", c)
	}
	// Disjoint: collapses to the nearest point of the universe.
	c := R(20, 20, 30, 30).ClipTo(u)
	if !c.IsPoint() || c.Min != Pt(10, 10) {
		t.Fatalf("disjoint ClipTo = %v", c)
	}
}

func TestNearestPointTo(t *testing.T) {
	r := R(0, 0, 2, 2)
	cases := []struct{ p, want Point }{
		{Pt(1, 1), Pt(1, 1)},  // inside
		{Pt(-1, 1), Pt(0, 1)}, // left
		{Pt(3, 3), Pt(2, 2)},  // corner
		{Pt(1, -5), Pt(1, 0)}, // below
	}
	for _, c := range cases {
		if got := r.NearestPointTo(c.p); got != c.want {
			t.Errorf("NearestPointTo(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCornersOrder(t *testing.T) {
	r := R(0, 0, 1, 2)
	c := r.Corners()
	want := [4]Point{{0, 0}, {1, 0}, {0, 2}, {1, 2}}
	if c != want {
		t.Fatalf("Corners = %v, want %v", c, want)
	}
}

func TestEdgesConnectAdjacentCorners(t *testing.T) {
	r := R(0, 0, 3, 5)
	cs := r.Corners()
	for _, e := range r.Edges() {
		a, b := cs[e[0]], cs[e[1]]
		// Edges of a rectangle are axis-aligned and have positive length.
		if a.X != b.X && a.Y != b.Y {
			t.Errorf("edge %v-%v is not axis-aligned", a, b)
		}
		if a == b {
			t.Errorf("edge %v has zero length", a)
		}
	}
}

func TestFurthestCorner(t *testing.T) {
	r := R(0, 0, 2, 2)
	if fc := r.FurthestCorner(Pt(-1, -1)); fc != Pt(2, 2) {
		t.Fatalf("FurthestCorner = %v", fc)
	}
	if fc := r.FurthestCorner(Pt(3, 0)); fc != Pt(0, 2) {
		t.Fatalf("FurthestCorner = %v", fc)
	}
}

func TestMinMaxDistRect(t *testing.T) {
	r := R(0, 0, 2, 2)
	if d := Pt(1, 1).MinDistRect(r); d != 0 {
		t.Errorf("inside MinDistRect = %v", d)
	}
	if d := Pt(5, 1).MinDistRect(r); d != 3 {
		t.Errorf("side MinDistRect = %v", d)
	}
	if d := Pt(5, 6).MinDistRect(r); d != 5 {
		t.Errorf("corner MinDistRect = %v", d)
	}
	if d := Pt(-1, -1).MaxDistRect(r); !almostEq(d, math.Hypot(3, 3)) {
		t.Errorf("MaxDistRect = %v", d)
	}
}

// Property: MinDistRect is the infimum and MaxDistRect the supremum of
// distances from p to sampled points of r.
func TestMinMaxDistRectBracketsSampledDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		r := randRect(rng, 100)
		p := Pt(rng.Float64()*200-50, rng.Float64()*200-50)
		lo, hi := p.MinDistRect(r), p.MaxDistRect(r)
		if lo > hi+Eps {
			t.Fatalf("min %v > max %v for p=%v r=%v", lo, hi, p, r)
		}
		for i := 0; i < 50; i++ {
			q := Pt(
				r.Min.X+rng.Float64()*r.Width(),
				r.Min.Y+rng.Float64()*r.Height(),
			)
			d := p.Dist(q)
			if d < lo-1e-9 || d > hi+1e-9 {
				t.Fatalf("sampled distance %v outside [%v, %v]", d, lo, hi)
			}
		}
		// The extremes are attained at the nearest point / furthest corner.
		if got := p.Dist(r.NearestPointTo(p)); !almostEq(got, lo) {
			t.Fatalf("nearest point distance %v != MinDistRect %v", got, lo)
		}
		if got := p.Dist(r.FurthestCorner(p)); !almostEq(got, hi) {
			t.Fatalf("furthest corner distance %v != MaxDistRect %v", got, hi)
		}
	}
}

func TestMinMaxDistRects(t *testing.T) {
	a := R(0, 0, 1, 1)
	b := R(3, 0, 4, 1)
	if d := MinDistRects(a, b); d != 2 {
		t.Errorf("MinDistRects = %v", d)
	}
	if d := MaxDistRects(a, b); !almostEq(d, math.Hypot(4, 1)) {
		t.Errorf("MaxDistRects = %v", d)
	}
	// Overlapping rectangles have zero min distance.
	if d := MinDistRects(a, R(0.5, 0.5, 2, 2)); d != 0 {
		t.Errorf("overlap MinDistRects = %v", d)
	}
}

func TestMinDistRectsBracketsSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a, b := randRect(rng, 50), randRect(rng, 50)
		lo, hi := MinDistRects(a, b), MaxDistRects(a, b)
		for i := 0; i < 30; i++ {
			p := samplePoint(rng, a)
			q := samplePoint(rng, b)
			d := p.Dist(q)
			if d < lo-1e-9 || d > hi+1e-9 {
				t.Fatalf("pair distance %v outside [%v,%v] a=%v b=%v", d, lo, hi, a, b)
			}
		}
	}
}

func TestOverlapFraction(t *testing.T) {
	r := R(0, 0, 2, 2)
	if f := OverlapFraction(r, R(0, 0, 1, 2)); f != 0.5 {
		t.Errorf("half overlap = %v", f)
	}
	if f := OverlapFraction(r, R(10, 10, 11, 11)); f != 0 {
		t.Errorf("disjoint = %v", f)
	}
	if f := OverlapFraction(r, R(-1, -1, 3, 3)); f != 1 {
		t.Errorf("containing = %v", f)
	}
	// Degenerate r intersecting s counts as fully covered.
	pt := Rect{Min: Pt(1, 1), Max: Pt(1, 1)}
	if f := OverlapFraction(pt, r); f != 1 {
		t.Errorf("degenerate inside = %v", f)
	}
	if f := OverlapFraction(pt, R(5, 5, 6, 6)); f != 0 {
		t.Errorf("degenerate outside = %v", f)
	}
}

func TestSegmentAt(t *testing.T) {
	s := Segment{A: Pt(0, 0), B: Pt(4, 2)}
	if s.At(0) != s.A || s.At(1) != s.B {
		t.Fatal("endpoints wrong")
	}
	if s.At(0.5) != Pt(2, 1) {
		t.Fatalf("midpoint = %v", s.At(0.5))
	}
	if s.Len() != math.Hypot(4, 2) {
		t.Fatalf("Len = %v", s.Len())
	}
}

func TestSegmentClosestPointTo(t *testing.T) {
	s := Segment{A: Pt(0, 0), B: Pt(10, 0)}
	if c := s.ClosestPointTo(Pt(5, 3)); c != Pt(5, 0) {
		t.Errorf("perpendicular foot = %v", c)
	}
	if c := s.ClosestPointTo(Pt(-4, 1)); c != Pt(0, 0) {
		t.Errorf("clamped to A = %v", c)
	}
	if c := s.ClosestPointTo(Pt(15, -2)); c != Pt(10, 0) {
		t.Errorf("clamped to B = %v", c)
	}
	deg := Segment{A: Pt(1, 1), B: Pt(1, 1)}
	if c := deg.ClosestPointTo(Pt(9, 9)); c != Pt(1, 1) {
		t.Errorf("degenerate segment = %v", c)
	}
}

func TestBisectorIntersectionSimple(t *testing.T) {
	// Filters at (0,0) and (10,0); the bisector is x = 5. It crosses
	// the segment from (0,2) to (10,2) at (5,2).
	seg := Segment{A: Pt(0, 2), B: Pt(10, 2)}
	m, ok := BisectorIntersection(seg, Pt(0, 0), Pt(10, 0))
	if !ok {
		t.Fatal("expected intersection")
	}
	if !m.Eq(Pt(5, 2)) {
		t.Fatalf("m = %v, want (5,2)", m)
	}
}

func TestBisectorIntersectionEquidistant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		seg := Segment{
			A: Pt(rng.Float64()*100, rng.Float64()*100),
			B: Pt(rng.Float64()*100, rng.Float64()*100),
		}
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		m, ok := BisectorIntersection(seg, a, b)
		if !ok {
			continue
		}
		// If the bisector genuinely crosses the segment (a is closer
		// to A's side and b to B's side), m must be equidistant.
		da, db := seg.A.Dist(a)-seg.A.Dist(b), seg.B.Dist(b)-seg.B.Dist(a)
		if da < -Eps && db < -Eps {
			if d := math.Abs(m.Dist(a) - m.Dist(b)); d > 1e-6 {
				t.Fatalf("m=%v not equidistant: |ma|-|mb| = %v (a=%v b=%v seg=%v)", m, d, a, b, seg)
			}
		}
		// In all cases m stays on the segment.
		foot := seg.ClosestPointTo(m)
		if foot.Dist(m) > 1e-6 {
			t.Fatalf("m=%v off the segment (foot %v)", m, foot)
		}
	}
}

func TestBisectorIntersectionIdenticalFilters(t *testing.T) {
	seg := Segment{A: Pt(0, 0), B: Pt(1, 0)}
	if _, ok := BisectorIntersection(seg, Pt(3, 3), Pt(3, 3)); ok {
		t.Fatal("identical filters should yield no middle point")
	}
}

func TestBisectorIntersectionParallel(t *testing.T) {
	// Segment lies exactly on the bisector of a and b: every point is
	// equidistant; the implementation picks the midpoint.
	seg := Segment{A: Pt(5, 0), B: Pt(5, 10)}
	m, ok := BisectorIntersection(seg, Pt(0, 3), Pt(10, 3))
	if !ok {
		t.Fatal("expected a middle point")
	}
	if !almostEq(m.Dist(Pt(0, 3)), m.Dist(Pt(10, 3))) {
		t.Fatalf("midpoint %v not equidistant", m)
	}
}

func TestUnionCommutativeAssociativeQuick(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 float64) bool {
		a, b := R(a0, a1, a2, a3), R(b0, b1, b2, b3)
		if a.Union(b) != b.Union(a) {
			return false
		}
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	cfg := &quick.Config{MaxCount: 300, Values: smallFloats(8)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestIntersectSymmetricQuick(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 float64) bool {
		a, b := R(a0, a1, a2, a3), R(b0, b1, b2, b3)
		ia, oka := a.Intersect(b)
		ib, okb := b.Intersect(a)
		if oka != okb {
			return false
		}
		if !oka {
			return true
		}
		return ia == ib && a.ContainsRect(ia) && b.ContainsRect(ia)
	}
	cfg := &quick.Config{MaxCount: 300, Values: smallFloats(8)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// smallFloats builds a testing/quick value generator producing n floats
// in [-100, 100] — large enough to exercise geometry, small enough to
// avoid overflow-dominated cases that say nothing about the code.
func smallFloats(n int) func([]reflect.Value, *rand.Rand) {
	return func(values []reflect.Value, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			values[i] = reflect.ValueOf(rng.Float64()*200 - 100)
		}
	}
}

func randRect(rng *rand.Rand, scale float64) Rect {
	x, y := rng.Float64()*scale, rng.Float64()*scale
	return R(x, y, x+rng.Float64()*scale/2, y+rng.Float64()*scale/2)
}

func samplePoint(rng *rand.Rand, r Rect) Point {
	return Pt(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height())
}

// TestKernelsMatchMathMinMax pins the rect kernels that use the builtin
// min and max to the math.Min/math.Max forms they replaced, bit for
// bit, on finite coordinates with ±0 included: the two differ only
// when a NaN meets an infinity, and IsValid rejects both.
func TestKernelsMatchMathMinMax(t *testing.T) {
	special := []float64{math.Copysign(0, -1), 0, -1, 1, 2.5, -3.25, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(5))
	coord := func() float64 {
		if rng.Intn(2) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Float64()*200 - 100
	}
	// rect keeps both zeros' signs where they land: Min <= Max holds
	// for -0 and +0 in either order.
	rect := func() Rect {
		x0, x1, y0, y1 := coord(), coord(), coord(), coord()
		if x1 < x0 {
			x0, x1 = x1, x0
		}
		if y1 < y0 {
			y0, y1 = y1, y0
		}
		return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameRect := func(a, b Rect) bool {
		return same(a.Min.X, b.Min.X) && same(a.Min.Y, b.Min.Y) && same(a.Max.X, b.Max.X) && same(a.Max.Y, b.Max.Y)
	}
	for i := 0; i < 20000; i++ {
		r, s, p := rect(), rect(), Pt(coord(), coord())
		if got, ok := r.Intersect(s); ok && !sameRect(got, Rect{
			Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
			Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
		}) {
			t.Fatalf("%v.Intersect(%v) = %v", r, s, got)
		}
		if got := r.Union(s); !sameRect(got, Rect{
			Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
			Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
		}) {
			t.Fatalf("%v.Union(%v) = %v", r, s, got)
		}
		if got := r.ExtendPoint(p); !sameRect(got, Rect{
			Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
			Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
		}) {
			t.Fatalf("%v.ExtendPoint(%v) = %v", r, p, got)
		}
		dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
		dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
		if got := p.MaxDist2Rect(r); !same(got, dx*dx+dy*dy) {
			t.Fatalf("%v.MaxDist2Rect(%v) = %v, want %v", p, r, got, dx*dx+dy*dy)
		}
		dx = math.Max(math.Abs(r.Max.X-s.Min.X), math.Abs(s.Max.X-r.Min.X))
		dy = math.Max(math.Abs(r.Max.Y-s.Min.Y), math.Abs(s.Max.Y-r.Min.Y))
		if got := MaxDistRects(r, s); !same(got, math.Hypot(dx, dy)) {
			t.Fatalf("MaxDistRects(%v, %v) = %v, want %v", r, s, got, math.Hypot(dx, dy))
		}
	}
}
