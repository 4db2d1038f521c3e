package main

import (
	"fmt"
	"math/rand"

	"casper"
	"casper/internal/protocol"
)

// opKind is one request kind of the op streams.
type opKind uint8

const (
	opNNPublic opKind = iota
	opKNNPublic
	opRangePublic
	opNNBuddy
	opUpdate
	opUpdateBatch
	opAddPublic
	numKinds
)

var kindNames = [numKinds]string{
	"nn_public", "knn_public", "range_public", "nn_buddy",
	"update", "update_batch", "add_public",
}

func (k opKind) isQuery() bool { return k <= opNNBuddy }

const (
	numWorkers = 8  // closed-loop clients, users partitioned by uid mod 8
	numConns   = 2  // v2 connections; 4 workers share each
	knnK       = 5  // neighbours asked by knn_public
	batchSize  = 32 // entries per update_batch frame
	numFrames  = 16 // precomputed movement frames, walked back and forth
	frameDT    = 5  // simulated seconds between two frames
)

// workload is one traffic mix. mix holds weights out of 10000.
type workload struct {
	name string
	mix  [numKinds]int
	// rate sizes the script: a run executes rate ops per second of its
	// --seconds budget, warm-up included, however long they take. It is
	// about 0.7 of what the parent commit of the benchmark completed per
	// second on the two-core sandbox, so the script ends inside the budget
	// there even in the host's slow spells, and the work is the same on
	// every commit.
	rate    int
	watches int // standing queries registered during set-up, at full scale
	traced  int // ops of the fixed-work traced pass, at full scale
}

var workloads = []workload{
	{name: "read_heavy", rate: 17000, traced: 20000, mix: [numKinds]int{
		opNNPublic: 3880, opKNNPublic: 1940, opRangePublic: 1940, opNNBuddy: 1940, opUpdate: 300}},
	{name: "write_heavy", rate: 500, traced: 2000, mix: [numKinds]int{
		opUpdate: 8100, opUpdateBatch: 900,
		opNNPublic: 400, opKNNPublic: 200, opRangePublic: 200, opNNBuddy: 200}},
	{name: "public_churn", rate: 12000, traced: 20000, mix: [numKinds]int{
		opNNPublic: 4750, opKNNPublic: 2375, opRangePublic: 2375, opAddPublic: 200, opUpdate: 300}},
	{name: "continuous_watch", rate: 640, watches: 4000, traced: 600, mix: [numKinds]int{
		opUpdate:   9000,
		opNNPublic: 400, opKNNPublic: 200, opRangePublic: 200, opNNBuddy: 200}},
}

// scriptOps is how many ops each worker executes for a --seconds budget.
func (wl workload) scriptOps(seconds float64) int {
	return max(10, int(float64(wl.rate)*seconds)/numWorkers)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale sizes the world. fullScale is what BENCHMARK.json measures; the
// self-test runs the same code at 1/100 of it.
type scale struct {
	users, targets int
	div            int // divides watches and traced-pass ops
}

var fullScale = scale{users: 20000, targets: 10000, div: 1}

// world is everything generated from the seed before the program is
// touched: where every user is at each movement frame, their privacy
// profiles, and the public targets.
type world struct {
	seed     int64
	universe casper.Rect
	frames   [][]casper.Point // frames[f][uid]
	profiles []casper.Profile
	targets  []casper.PublicObject
	radius   float64 // range_public radius: universe width / 40
}

func newWorld(seed int64, sc scale) *world {
	cfg := casper.DefaultConfig()
	w := &world{seed: seed, universe: cfg.Universe, radius: cfg.Universe.Width() / 40}
	graph := casper.SyntheticHennepin(seed)
	gen := casper.NewMovingObjects(graph, sc.users, seed)
	w.frames = make([][]casper.Point, numFrames)
	for f := range w.frames {
		var ups []casper.LocationUpdate
		if f == 0 {
			ups = gen.Positions()
		} else {
			ups = gen.Step(frameDT)
		}
		w.frames[f] = make([]casper.Point, sc.users)
		for _, u := range ups {
			w.frames[f][u.ID] = u.Pos
		}
	}
	// The paper's Sec. 6 profile ranges: k in [1,50], Amin in
	// [0.005 %, 0.01 %] of the universe. k is clamped to the population
	// at registration time because k > population is unsatisfiable.
	rng := rand.New(rand.NewSource(seed ^ 0x70726f66))
	area := cfg.Universe.Area()
	w.profiles = make([]casper.Profile, sc.users)
	for i := range w.profiles {
		k := 1 + rng.Intn(50)
		if k > i+1 {
			k = i + 1
		}
		w.profiles[i] = casper.Profile{K: k, AMin: area * (5e-5 + 5e-5*rng.Float64())}
	}
	w.targets = casper.UniformTargets(cfg.Universe, sc.targets, seed)
	return w
}

func (w *world) users() int { return len(w.profiles) }

// framePos is where uid is after its step-th update: the frames are
// walked forward then backward so movement stays continuous however many
// updates a run gets through.
func (w *world) framePos(uid int64, step int) casper.Point {
	f := step % (2*numFrames - 2)
	if f >= numFrames {
		f = 2*numFrames - 2 - f
	}
	return w.frames[f][uid]
}

// addedTarget is the idx-th add_public target of this seed.
func (w *world) addedTarget(idx int) casper.PublicObject {
	x := splitmix(uint64(w.seed)<<20 + uint64(idx))
	y := splitmix(x)
	const inv = 1.0 / (1 << 53)
	return casper.PublicObject{
		ID: int64(len(w.targets) + idx),
		Pos: casper.Pt(
			w.universe.Min.X+float64(x>>11)*inv*w.universe.Width(),
			w.universe.Min.Y+float64(y>>11)*inv*w.universe.Height()),
		Name: "target",
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// op is one generated request. The program only ever sees these.
type op struct {
	kind  opKind
	uid   int64
	pos   casper.Point           // update: the new position
	batch []protocol.BatchUpdate // update_batch; valid until the next call of next
}

// stream is one worker's seeded op sequence over its own users
// (uid mod numWorkers == id), so each user's ops are sequential and the
// stream always knows the exact position a query is asked from.
type stream struct {
	w     *world
	rng   *rand.Rand
	cum   [numKinds]int
	mine  []int64 // uids of this worker
	step  []int   // updates sent so far, per entry of mine
	batch []protocol.BatchUpdate
}

func newStream(w *world, wl workload, id int) *stream {
	s := &stream{w: w, rng: rand.New(rand.NewSource(w.seed*1000003 + int64(id)))}
	sum := 0
	for k, m := range wl.mix {
		sum += m
		s.cum[k] = sum
	}
	if sum != 10000 {
		panic(fmt.Sprintf("workload %s: mix sums to %d", wl.name, sum))
	}
	for uid := id; uid < w.users(); uid += numWorkers {
		s.mine = append(s.mine, int64(uid))
	}
	s.step = make([]int, len(s.mine))
	s.batch = make([]protocol.BatchUpdate, 0, batchSize)
	return s
}

// position is the exact current location of the i-th user of this stream.
func (s *stream) position(i int) casper.Point { return s.w.framePos(s.mine[i], s.step[i]) }

func (s *stream) move(i int) casper.Point {
	s.step[i]++
	return s.position(i)
}

// next generates the following op and returns the index (into mine) of
// the user it is about.
func (s *stream) next() (op, int) {
	r := s.rng.Intn(10000)
	kind := opKind(0)
	for int(kind) < len(s.cum)-1 && r >= s.cum[kind] {
		kind++
	}
	i := s.rng.Intn(len(s.mine))
	o := op{kind: kind, uid: s.mine[i]}
	switch kind {
	case opUpdate:
		o.pos = s.move(i)
	case opUpdateBatch:
		s.batch = s.batch[:0]
		n := min(batchSize, len(s.mine))
		for j := 0; j < n; j++ {
			u := (i + j) % len(s.mine)
			p := s.move(u)
			s.batch = append(s.batch, protocol.BatchUpdate{UserID: s.mine[u], X: p.X, Y: p.Y})
		}
		o.batch = s.batch
	}
	return o, i
}
