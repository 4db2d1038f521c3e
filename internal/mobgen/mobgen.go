// Package mobgen is a network-based generator of moving objects in the
// style of Brinkhoff (GeoInformatica 2002), the workload generator the
// Casper paper uses for all its experiments. Objects spawn on the road
// network, pick destinations, follow shortest (fastest) paths at the
// speed of each road segment, and immediately re-route to a new
// destination on arrival. Each simulation step reports the objects'
// positions — exactly the (uid, x, y) location-update stream the
// location anonymizer consumes.
//
// Destination choice can be biased toward the network center
// (CenterBias) to reproduce the downtown density skew of a real county
// map. All randomness is owned by an explicit seed, so update streams
// are reproducible.
package mobgen

import (
	"fmt"
	"math"
	"math/rand"

	"casper/internal/geom"
	"casper/internal/roadnet"
)

// Update is one object position report.
type Update struct {
	ID  int64
	Pos geom.Point
}

// Config parameterizes a Generator.
type Config struct {
	// NumObjects is the number of moving objects to simulate.
	NumObjects int
	// Seed drives all random choices.
	Seed int64
	// CenterBias in [0,1) skews spawn and destination choice toward
	// the network center: 0 is uniform over nodes; larger values
	// concentrate traffic downtown, mimicking a real county.
	CenterBias float64
	// SpeedJitter scales each object's speed by a uniform factor in
	// [1-SpeedJitter, 1+SpeedJitter], so objects on the same road move
	// at slightly different speeds.
	SpeedJitter float64
}

// DefaultConfig returns the configuration used by the experiment
// harness: moderate downtown bias and ±20% speed variation.
func DefaultConfig(numObjects int, seed int64) Config {
	return Config{NumObjects: numObjects, Seed: seed, CenterBias: 0.5, SpeedJitter: 0.2}
}

// object is one moving object: its current path, the index of the
// path edge it is traversing, and how far along that edge it is.
type object struct {
	id       int64
	path     []roadnet.NodeID
	leg      int     // index into path: currently traveling path[leg] -> path[leg+1]
	offset   float64 // meters progressed along the current leg
	pos      geom.Point
	speedMul float64
}

// Generator simulates the moving objects.
type Generator struct {
	graph   *roadnet.Graph
	cfg     Config
	rng     *rand.Rand
	objects []object
	weights []float64 // node sampling weights (center bias)
	wsum    float64
}

// New builds a generator over the given road network. It panics on a
// non-positive object count; the paper's experiments use 1K-50K.
func New(g *roadnet.Graph, cfg Config) *Generator {
	if cfg.NumObjects <= 0 {
		panic(fmt.Sprintf("mobgen: NumObjects = %d", cfg.NumObjects))
	}
	if cfg.CenterBias < 0 || cfg.CenterBias >= 1 {
		panic(fmt.Sprintf("mobgen: CenterBias = %v out of [0,1)", cfg.CenterBias))
	}
	gen := &Generator{
		graph: g,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	gen.buildWeights()
	gen.objects = make([]object, cfg.NumObjects)
	for i := range gen.objects {
		o := &gen.objects[i]
		o.id = int64(i)
		o.speedMul = 1 + (gen.rng.Float64()*2-1)*cfg.SpeedJitter
		start := gen.sampleNode()
		o.pos = g.Node(start).Pos
		gen.assignRoute(o, start)
	}
	return gen
}

// buildWeights precomputes node sampling weights: weight decays with
// distance from the center, mixed with a uniform floor so the whole
// network stays reachable.
func (gen *Generator) buildWeights() {
	b := gen.graph.Bounds()
	center := b.Center()
	maxD := center.Dist(b.Min)
	n := gen.graph.NumNodes()
	gen.weights = make([]float64, n)
	for i := 0; i < n; i++ {
		d := gen.graph.Node(roadnet.NodeID(i)).Pos.Dist(center) / maxD
		// Linear decay toward the edge, mixed with a uniform floor.
		gen.weights[i] = (1 - gen.cfg.CenterBias) + gen.cfg.CenterBias*(1-d)
		gen.wsum += gen.weights[i]
	}
}

func (gen *Generator) sampleNode() roadnet.NodeID {
	r := gen.rng.Float64() * gen.wsum
	for i, w := range gen.weights {
		r -= w
		if r <= 0 {
			return roadnet.NodeID(i)
		}
	}
	return roadnet.NodeID(len(gen.weights) - 1)
}

// assignRoute gives o a fresh shortest path from the given start node
// to a random destination.
func (gen *Generator) assignRoute(o *object, start roadnet.NodeID) {
	for attempt := 0; ; attempt++ {
		dest := gen.sampleNode()
		if dest == start && attempt < 10 {
			continue
		}
		path, ok := gen.graph.ShortestPath(start, dest)
		if ok && len(path) >= 2 {
			o.path, o.leg, o.offset = path, 0, 0
			return
		}
		if attempt > 20 {
			// Degenerate network (single node or disconnected pocket):
			// park the object in place.
			o.path, o.leg, o.offset = []roadnet.NodeID{start}, 0, 0
			return
		}
	}
}

// NumObjects returns the number of simulated objects.
func (gen *Generator) NumObjects() int { return len(gen.objects) }

// Positions returns the current position of every object, in ID
// order. The slice is freshly allocated.
func (gen *Generator) Positions() []Update {
	out := make([]Update, len(gen.objects))
	for i := range gen.objects {
		out[i] = Update{ID: gen.objects[i].id, Pos: gen.objects[i].pos}
	}
	return out
}

// PositionsInto is Positions into a caller-owned buffer: the updates
// are appended to buf[:0] and the extended slice returned, so a
// retained buffer makes repeated snapshots allocation-free. Sustained
// benchmark drivers (one tick per iteration) use this to keep the
// generator off the measured allocation profile.
func (gen *Generator) PositionsInto(buf []Update) []Update {
	buf = buf[:0]
	for i := range gen.objects {
		buf = append(buf, Update{ID: gen.objects[i].id, Pos: gen.objects[i].pos})
	}
	return buf
}

// Step advances the simulation by dt seconds and returns the updated
// position of every object. Objects that reach their destination
// immediately receive a new route (Brinkhoff's continuous workload).
func (gen *Generator) Step(dt float64) []Update {
	if dt <= 0 {
		panic(fmt.Sprintf("mobgen: non-positive dt %v", dt))
	}
	for i := range gen.objects {
		gen.advance(&gen.objects[i], dt)
	}
	return gen.Positions()
}

// StepInto is Step with a caller-owned buffer (see PositionsInto).
func (gen *Generator) StepInto(dt float64, buf []Update) []Update {
	if dt <= 0 {
		panic(fmt.Sprintf("mobgen: non-positive dt %v", dt))
	}
	for i := range gen.objects {
		gen.advance(&gen.objects[i], dt)
	}
	return gen.PositionsInto(buf)
}

func (gen *Generator) advance(o *object, dt float64) {
	remaining := dt
	for remaining > 0 {
		if o.leg >= len(o.path)-1 {
			// Arrived: pick a new destination and keep moving within
			// the same tick.
			gen.assignRoute(o, o.path[len(o.path)-1])
			if len(o.path) < 2 {
				o.pos = gen.graph.Node(o.path[0]).Pos
				return
			}
		}
		a, b := o.path[o.leg], o.path[o.leg+1]
		ei, ok := gen.graph.EdgeBetween(a, b)
		if !ok {
			// Should be impossible on paths from ShortestPath.
			panic(fmt.Sprintf("mobgen: path uses nonexistent edge %d-%d", a, b))
		}
		e := gen.graph.Edge(ei)
		speed := e.Class.Speed() * o.speedMul
		travel := speed * remaining
		if o.offset+travel < e.Length {
			o.offset += travel
			remaining = 0
		} else {
			// Consume the rest of this leg and continue on the next.
			used := (e.Length - o.offset) / speed
			remaining -= used
			o.leg++
			o.offset = 0
		}
		// Interpolate the position along the current leg.
		pa, pb := gen.graph.Node(a).Pos, gen.graph.Node(b).Pos
		t := o.offset / e.Length
		if o.leg >= len(o.path)-1 && o.offset == 0 {
			// Sitting exactly on the destination node.
			o.pos = gen.graph.Node(o.path[len(o.path)-1]).Pos
		} else if o.offset == 0 && o.leg < len(o.path)-1 {
			o.pos = gen.graph.Node(o.path[o.leg]).Pos
		} else {
			o.pos = geom.Pt(pa.X+(pb.X-pa.X)*t, pa.Y+(pb.Y-pa.Y)*t)
		}
	}
}

// UniformPoints returns n points uniformly distributed over r —
// the paper's placement for target objects ("target objects are chosen
// as uniformly distributed in the spatial space", Sec. 6).
func UniformPoints(r geom.Rect, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Pt(
			r.Min.X+rng.Float64()*r.Width(),
			r.Min.Y+rng.Float64()*r.Height(),
		)
	}
	return out
}

// UniformRects returns n rectangles with uniformly random centers in r
// and areas drawn uniformly from [minArea, maxArea], clipped to r.
// The paper represents private target objects as cloaked regions of
// 1-64 lowest-level cells; the experiment harness converts that cell
// range into an area range and calls this.
func UniformRects(r geom.Rect, n int, minArea, maxArea float64, seed int64) []geom.Rect {
	if minArea <= 0 || maxArea < minArea {
		panic(fmt.Sprintf("mobgen: bad area range [%v, %v]", minArea, maxArea))
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		area := minArea + rng.Float64()*(maxArea-minArea)
		// Random aspect ratio in [0.5, 2]: aspect = w/h, area = w*h.
		aspect := 0.5 + rng.Float64()*1.5
		w := math.Sqrt(area * aspect)
		h := area / w
		cx := r.Min.X + rng.Float64()*r.Width()
		cy := r.Min.Y + rng.Float64()*r.Height()
		out[i] = geom.R(cx-w/2, cy-h/2, cx+w/2, cy+h/2).ClipTo(r)
	}
	return out
}
