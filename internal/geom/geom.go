// Package geom provides the 2-D computational-geometry primitives used
// throughout Casper: points, axis-aligned rectangles, distance functions
// between points and rectangles, and the perpendicular-bisector
// construction at the heart of the privacy-aware query processor
// (Algorithm 2 of the paper).
//
// All coordinates are float64 in an arbitrary but consistent unit
// (the rest of the system uses meters).
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for approximate comparisons. Coordinates in
// Casper are tens of kilometers expressed in meters, so 1e-9 absolute
// tolerance on squared-distance comparisons is far below any meaningful
// resolution.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
// It avoids the square root when only comparisons are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Rect is an axis-aligned rectangle, closed on all sides:
// it contains every point p with MinX <= p.X <= MaxX and
// MinY <= p.Y <= MaxY. A Rect with Min == Max is a degenerate
// rectangle equivalent to a point; that is a valid cloaked region
// for a user with no privacy requirement.
type Rect struct {
	Min, Max Point
}

// R builds a Rect from its four coordinates, normalizing the corner
// order so that Min is the lower-left corner.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// RectFromPoints returns the minimum bounding rectangle of the given
// points. It panics if pts is empty.
func RectFromPoints(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints with no points")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f]x[%.3f,%.3f]", r.Min.X, r.Max.X, r.Min.Y, r.Max.Y)
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Perimeter returns the perimeter of r. It is used as the R-tree split
// goodness measure.
func (r Rect) Perimeter() float64 { return 2 * (r.Width() + r.Height()) }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// IsValid reports whether r is a well-formed rectangle (Min <= Max on
// both axes and all coordinates finite).
func (r Rect) IsValid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y &&
		!math.IsNaN(r.Min.X) && !math.IsNaN(r.Min.Y) &&
		!math.IsNaN(r.Max.X) && !math.IsNaN(r.Max.Y) &&
		!math.IsInf(r.Min.X, 0) && !math.IsInf(r.Min.Y, 0) &&
		!math.IsInf(r.Max.X, 0) && !math.IsInf(r.Max.Y, 0)
}

// IsPoint reports whether r is degenerate (zero width and height).
func (r Rect) IsPoint() bool { return r.Width() == 0 && r.Height() == 0 }

// Contains reports whether p lies in r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point
// (boundary touches count).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Intersect returns the intersection of r and s. The second return
// value is false when the rectangles are disjoint; the returned Rect is
// then the zero value.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		Min: Point{max(r.Min.X, s.Min.X), max(r.Min.Y, s.Min.Y)},
		Max: Point{min(r.Max.X, s.Max.X), min(r.Max.Y, s.Max.Y)},
	}, true
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Max: Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// ExtendPoint returns the minimum bounding rectangle of r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		Min: Point{min(r.Min.X, p.X), min(r.Min.Y, p.Y)},
		Max: Point{max(r.Max.X, p.X), max(r.Max.Y, p.Y)},
	}
}

// Expand grows r outward by d on every side. Negative d shrinks; the
// result is normalized so it stays valid when over-shrunk.
func (r Rect) Expand(d float64) Rect {
	return R(r.Min.X-d, r.Min.Y-d, r.Max.X+d, r.Max.Y+d)
}

// ExpandSides grows each side of r outward by its own distance:
// left toward -X, right toward +X, down toward -Y, up toward +Y.
// This is how Algorithm 2 builds the extended area A_EXT, where each
// edge of the cloaked region is pushed outward by that edge's max_d.
func (r Rect) ExpandSides(left, right, down, up float64) Rect {
	return R(r.Min.X-left, r.Min.Y-down, r.Max.X+right, r.Max.Y+up)
}

// ClipTo returns r clipped to the universe u. If r and u are disjoint,
// the result is the point of u nearest to r (a degenerate rectangle),
// which keeps downstream code total.
func (r Rect) ClipTo(u Rect) Rect {
	if c, ok := r.Intersect(u); ok {
		return c
	}
	p := u.NearestPointTo(r.Center())
	return Rect{Min: p, Max: p}
}

// NearestPointTo returns the point of r nearest to p (p itself when p
// is inside r).
func (r Rect) NearestPointTo(p Point) Point {
	return Point{clamp(p.X, r.Min.X, r.Max.X), clamp(p.Y, r.Min.Y, r.Max.Y)}
}

// Corners returns the four corners of r in the fixed order
// lower-left, lower-right, upper-left, upper-right.
//
// The privacy-aware query processor identifies the cloaked region's
// vertices v1..v4 with these corners.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.Min.X, r.Min.Y},
		{r.Max.X, r.Min.Y},
		{r.Min.X, r.Max.Y},
		{r.Max.X, r.Max.Y},
	}
}

// Edges returns the four edges of r as index pairs into Corners(),
// in the order bottom, top, left, right.
func (r Rect) Edges() [4][2]int {
	return [4][2]int{
		{0, 1}, // bottom: lower-left -> lower-right
		{2, 3}, // top: upper-left -> upper-right
		{0, 2}, // left: lower-left -> upper-left
		{1, 3}, // right: lower-right -> upper-right
	}
}

// FurthestCorner returns the corner of r furthest from p. This is the
// pessimistic-distance anchor used by the private-data variant of
// Algorithm 2 (Sec. 5.2.1): the exact location of a cloaked target is
// assumed to be at its furthest corner from the query vertex.
func (r Rect) FurthestCorner(p Point) Point {
	best := Point{r.Min.X, r.Min.Y}
	bd := p.Dist2(best)
	for _, c := range r.Corners() {
		if d := p.Dist2(c); d > bd {
			bd, best = d, c
		}
	}
	return best
}

// MinDistRect returns the minimum Euclidean distance from p to any
// point of r; zero when p is inside r.
func (p Point) MinDistRect(r Rect) float64 {
	return math.Sqrt(p.MinDist2Rect(r))
}

// MinDist2Rect returns the squared minimum distance from p to r.
func (p Point) MinDist2Rect(r Rect) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return dx*dx + dy*dy
}

// MaxDistRect returns the maximum Euclidean distance from p to any
// point of r, attained at the furthest corner.
func (p Point) MaxDistRect(r Rect) float64 {
	return math.Sqrt(p.MaxDist2Rect(r))
}

// MaxDist2Rect returns the squared maximum distance from p to r.
func (p Point) MaxDist2Rect(r Rect) float64 {
	dx := max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return dx*dx + dy*dy
}

// MinDistRects returns the minimum distance between any point of a and
// any point of b; zero when they intersect.
func MinDistRects(a, b Rect) float64 {
	dx := gapDist(a.Min.X, a.Max.X, b.Min.X, b.Max.X)
	dy := gapDist(a.Min.Y, a.Max.Y, b.Min.Y, b.Max.Y)
	return math.Hypot(dx, dy)
}

// MaxDistRects returns the maximum distance between any point of a and
// any point of b.
func MaxDistRects(a, b Rect) float64 {
	dx := max(math.Abs(a.Max.X-b.Min.X), math.Abs(b.Max.X-a.Min.X))
	dy := max(math.Abs(a.Max.Y-b.Min.Y), math.Abs(b.Max.Y-a.Min.Y))
	return math.Hypot(dx, dy)
}

// OverlapFraction returns the fraction of r's area covered by s,
// in [0, 1]. Degenerate r (zero area) yields 1 when its point set
// intersects s and 0 otherwise. This implements the "x% of the cloaked
// area overlaps" policy for probabilistic answers over private data
// (Sec. 5.2.1, step 4).
func OverlapFraction(r, s Rect) float64 {
	in, ok := r.Intersect(s)
	if !ok {
		return 0
	}
	if r.Area() == 0 {
		return 1
	}
	return in.Area() / r.Area()
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Len returns the length of s.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// At returns the point A + t*(B-A); t in [0,1] stays on the segment.
func (s Segment) At(t float64) Point {
	return Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
}

// ClosestPointTo returns the point of s closest to p.
func (s Segment) ClosestPointTo(p Point) Point {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return s.A
	}
	t := clamp(p.Sub(s.A).Dot(d)/den, 0, 1)
	return s.At(t)
}

// BisectorIntersection computes the "middle point" m of Algorithm 2,
// step 2: the point on segment seg that is equidistant from a and b.
// Geometrically it is the intersection of the perpendicular bisector of
// a and b with seg.
//
// When a's half-plane covers the entire segment the bisector does not
// cross it; the paper guarantees a crossing because a is the nearest
// filter of seg.A and b of seg.B, but floating-point ties can push the
// solution just outside [0, 1]. The parameter is clamped to the segment
// so the construction stays total; the clamped endpoint is then the
// point of (near-)equal distance. The second return value is false only
// when a == b (the bisector is undefined; Algorithm 2 sets m to NULL
// and d_m to 0 in that case).
func BisectorIntersection(seg Segment, a, b Point) (Point, bool) {
	if a.Eq(b) {
		return Point{}, false
	}
	// A point q is on the bisector iff |q-a|^2 == |q-b|^2, i.e.
	// 2 q·(b-a) == |b|^2 - |a|^2. Substitute q = A + t(B-A) and solve
	// the resulting linear equation in t.
	d := seg.B.Sub(seg.A)
	ab := b.Sub(a)
	den := 2 * d.Dot(ab)
	rhs := b.Dot(b) - a.Dot(a) - 2*seg.A.Dot(ab)
	var t float64
	if den == 0 {
		// Segment is parallel to the bisector: every point is equally
		// "between"; pick the midpoint of the segment.
		t = 0.5
	} else {
		t = clamp(rhs/den, 0, 1)
	}
	return seg.At(t), true
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

func gapDist(alo, ahi, blo, bhi float64) float64 {
	switch {
	case ahi < blo:
		return blo - ahi
	case bhi < alo:
		return alo - bhi
	default:
		return 0
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
