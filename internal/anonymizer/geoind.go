package anonymizer

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"casper/internal/geom"
	"casper/internal/pyramid"
)

// GeoInd is a geo-indistinguishability backend (Andrés et al.'s planar
// Laplace mechanism): instead of a k-anonymous region it releases a
// PERTURBED POINT — the exact position plus polar Laplace noise —
// under a per-user privacy budget ε_u. The guarantee is differential
// rather than population-based: any two true locations at distance d
// produce the released point with probability densities within a
// factor e^(ε_u·d) of each other, registered population or not.
//
// The profile still matters: a user asking for stronger k-anonymity
// gets a proportionally smaller budget (ε_u = ε/k), hence more noise,
// and Amin floors the confidence box's area. The released
// CloakedRegion carries Mechanism == MechPerturbed with the noisy
// Point, its confidence Radius (the true position is within Radius of
// Point with probability geoindConfidence), and Region set to the
// Radius bounding box so every region-shaped consumer (the continuous
// monitor, WAL records, density maps) keeps working unchanged.
//
// Noise is sampled by the polar inverse-CDF method: the angle is
// uniform, and the radius CDF of the planar Laplace distribution,
// C(r) = 1 - (1 + ε r)·e^(-ε r), is inverted with the Lambert W
// function's W₋₁ branch: r = -(W₋₁((p-1)/e) + 1)/ε.
//
// The table's slot is empty: a user's row is all the state there is.
type GeoInd struct {
	table[struct{}]
	universe geom.Rect

	// epsilon is the base budget, stored as float bits so hot reload
	// can swap it without a lock.
	epsilon atomic.Uint64

	// rngMu guards the noise source, which concurrent cloaks share
	// under the table's read lock; sampling is two Float64 draws.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// geoEntry is a user row with an empty slot.
type geoEntry = entry[struct{}]

// geoindConfidence is the mass of the noise distribution the reported
// Radius (and therefore Region) covers.
const geoindConfidence = 0.95

// NewGeoInd builds a geo-indistinguishability backend with the default
// base budget; seed drives the noise source (zero is a valid seed).
func NewGeoInd(universe geom.Rect, levels int, seed int64) *GeoInd {
	grid := pyramid.NewGrid(universe, levels)
	g := &GeoInd{
		universe: grid.CellRect(pyramid.Root()),
		rng:      rand.New(rand.NewSource(seed)),
	}
	g.epsilon.Store(math.Float64bits(DefaultEpsilon))
	g.init("geoind", grid, g)
	return g
}

// SetEpsilon changes the base privacy budget on a live backend (hot
// reload). The same sweep as BackendConfig.Validate: NaN, ±Inf and
// anything not strictly positive are rejected.
func (g *GeoInd) SetEpsilon(eps float64) error {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("anonymizer: geoind epsilon %v, need finite > 0", eps)
	}
	g.epsilon.Store(math.Float64bits(eps))
	return nil
}

// Epsilon returns the current base privacy budget.
func (g *GeoInd) Epsilon() float64 { return math.Float64frombits(g.epsilon.Load()) }

// add, move and remove count one table write each: there is no
// pyramid to maintain — that is the mechanism's efficiency story.
func (g *GeoInd) add(*geoEntry)              { g.updates++ }
func (g *GeoInd) move(*geoEntry, geom.Point) { g.updates++ }
func (g *GeoInd) remove(*geoEntry)           { g.updates++ }
func (g *GeoInd) reprofile(*geoEntry)        {}
func (g *GeoInd) at(geom.Point) struct{}     { return struct{}{} }

// cloak draws one planar Laplace sample around pos and assembles the
// release.
func (g *GeoInd) cloak(pos geom.Point, _ struct{}, prof Profile) (CloakedRegion, error) {
	// Stronger k-anonymity requests translate to a smaller budget:
	// ε_u = ε/k, so the noise radius scales linearly with k.
	epsU := g.Epsilon() / float64(prof.K)
	if prof.AMin > g.universe.Area() {
		return CloakedRegion{}, fmt.Errorf("%w: Amin=%v exceeds universe area %v",
			ErrUnsatisfiable, prof.AMin, g.universe.Area())
	}

	g.rngMu.Lock()
	theta := g.rng.Float64() * 2 * math.Pi
	p := g.rng.Float64()
	g.rngMu.Unlock()
	// Clamp p away from 1: C⁻¹(p) → ∞ as p → 1, and a release at
	// infinity serves nobody.
	if p > 1-1e-12 {
		p = 1 - 1e-12
	}
	r := laplaceRadius(epsU, p)
	noisy := geom.Point{X: pos.X + r*math.Cos(theta), Y: pos.Y + r*math.Sin(theta)}
	// The released point stays inside the universe (remapping is a
	// standard post-processing step and costs no privacy).
	noisy.X = clampF(noisy.X, g.universe.Min.X, g.universe.Max.X)
	noisy.Y = clampF(noisy.Y, g.universe.Min.Y, g.universe.Max.Y)

	// The confidence radius covers geoindConfidence of the noise mass;
	// Amin can only widen it.
	radius := laplaceRadius(epsU, geoindConfidence)
	if half := math.Sqrt(prof.AMin) / 2; half > radius {
		radius = half
	}
	return CloakedRegion{
		Region:     geom.R(noisy.X-radius, noisy.Y-radius, noisy.X+radius, noisy.Y+radius),
		Level:      -1,
		KRequested: prof.K,
		Mechanism:  MechPerturbed,
		Point:      noisy,
		Radius:     radius,
		Epsilon:    epsU,
	}, nil
}

// laplaceRadius is the inverse CDF of the planar Laplace radius
// distribution: the r with 1 - (1 + εr)e^(-εr) = p, via the W₋₁
// branch of the Lambert W function.
func laplaceRadius(eps, p float64) float64 {
	return -(lambertWm1((p-1)/math.E) + 1) / eps
}

// lambertWm1 evaluates the W₋₁ branch of the Lambert W function
// (w·e^w = x solved for w <= -1), defined for x in [-1/e, 0). The
// asymptotic expansion around the branch point seeds Halley's
// iteration, which converges to machine precision in a handful of
// steps everywhere we evaluate it.
func lambertWm1(x float64) float64 {
	if x < -1/math.E || x >= 0 {
		return math.NaN()
	}
	if x == -1/math.E {
		return -1
	}
	// Initial guess: near the branch point use the series in
	// sqrt(2(1+ex)); elsewhere the log-log asymptote w ≈ ln(-x) -
	// ln(-ln(-x)).
	var w float64
	if x > -0.25 {
		l1 := math.Log(-x)
		w = l1 - math.Log(-l1)
	} else {
		s := math.Sqrt(2 * (1 + math.E*x))
		w = -1 - s - s*s/3
	}
	for i := 0; i < 64; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		// Halley's step.
		d := ew*(w+1) - (w+2)*f/(2*w+2)
		next := w - f/d
		if math.Abs(next-w) <= 1e-14*math.Abs(next) {
			return next
		}
		w = next
	}
	return w
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
