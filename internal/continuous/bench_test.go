package continuous

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"casper/internal/geom"
	"casper/internal/mobgen"
	"casper/internal/privacyqp"
	"casper/internal/roadnet"
	"casper/internal/rtree"
)

// benchNet is shared by every monitor benchmark so the road network is
// built once, not once per sub-benchmark scale.
var benchNet = roadnet.SyntheticHennepin(101, roadnet.SyntheticHennepinConfig{
	Extent: 10000, GridN: 8, ArterialEvery: 4, Jitter: 0.2,
})

// benchCloak is the benchmark cloaking model: a fixed-size square
// around the reported position, clipped to the universe.
func benchCloak(p geom.Point, half float64) geom.Rect {
	return geom.R(p.X-half, p.Y-half, p.X+half, p.Y+half).ClipTo(world)
}

// setBenchPublic loads the benchmarks' 2000 uniform public objects.
func setBenchPublic(m *Monitor) {
	pts := mobgen.UniformPoints(world, 2000, 7)
	pub := make([]rtree.Item, len(pts))
	for i, p := range pts {
		pub[i] = rtree.Item{ID: int64(i), Rect: geom.R(p.X, p.Y, p.X, p.Y)}
	}
	m.SetPublic(pub)
}

// benchMonitor builds a monitor with nObjects moving private users
// (seeded from a mobgen fleet), 2000 public objects, and nQueries
// standing queries: 80% range counts, 15% public-data NN, 5%
// private-data radius. It returns the monitor and a pre-generated
// update trace (8 mobgen ticks, cloaked) for the measured loop, so
// trace generation stays off the benchmark clock.
func benchMonitor(b *testing.B, nQueries, nObjects int) (*Monitor, []PrivateUpdate) {
	b.Helper()
	m := NewMonitor(Config{})
	b.Cleanup(m.Close)

	setBenchPublic(m)

	gen := mobgen.New(benchNet, mobgen.DefaultConfig(nObjects, 13))
	buf := make([]mobgen.Update, 0, nObjects)
	seed := make([]PrivateUpdate, 0, nObjects)
	for _, u := range gen.PositionsInto(buf) {
		seed = append(seed, PrivateUpdate{ID: u.ID, Region: benchCloak(u.Pos, 60)})
	}
	if err := m.ApplyUpdates(seed); err != nil {
		b.Fatal(err)
	}

	rects := mobgen.UniformRects(world, nQueries, 10_000, 640_000, 23)
	cloaks := mobgen.UniformRects(world, nQueries, 40_000, 160_000, 29)
	for i := 0; i < nQueries; i++ {
		var err error
		switch {
		case i%20 < 16:
			_, _, err = m.RegisterRangeCount(rects[i], privacyqp.CountFractional)
		case i%20 < 19:
			_, _, err = m.RegisterNN(cloaks[i], privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
		default:
			_, _, err = m.RegisterRadius(cloaks[i], 500, privacyqp.PrivateData, -1)
		}
		if err != nil {
			b.Fatal(err)
		}
	}

	const ticks = 8
	trace := make([]PrivateUpdate, 0, ticks*nObjects)
	for t := 0; t < ticks; t++ {
		for _, u := range gen.StepInto(5, buf) {
			trace = append(trace, PrivateUpdate{ID: u.ID, Region: benchCloak(u.Pos, 60)})
		}
	}
	return m, trace
}

// BenchmarkMonitorIndexedUpdate is the per-update hot path with the
// standing queries spatially indexed: cost scales with the number of
// matching queries, not the number registered.
func BenchmarkMonitorIndexedUpdate(b *testing.B) {
	for _, q := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			m, trace := benchMonitor(b, q, 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := trace[i%len(trace)]
				if err := upsert(m, u.ID, u.Region); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchBuddies builds a monitor over nObjects moving private users and
// 2000 public objects, with nWatches standing queries in the mix a
// location service with buddy finding registers: one third each
// public-data NN, private-data NN and private-data radius, the
// private-data ones excluding their asker. Cloaks are snapped to the
// cells of a 64x64 grid, as the pyramid anonymizer's are, so many
// users share a cloak and distance ties are common. Each asker watches
// from her own stored cloak. It returns the monitor, the askers'
// watches, a shuffled update trace of 8 mobgen ticks, and the live
// heap the registrations retain per watch.
func benchBuddies(b *testing.B, nWatches, nObjects int) (*Monitor, map[int64]benchWatch, []PrivateUpdate, float64) {
	b.Helper()
	m := NewMonitor(Config{})
	b.Cleanup(m.Close)
	setBenchPublic(m)

	// mobgen starts every user on a road junction; let the fleet spread
	// along the roads before seeding the table.
	gen := mobgen.New(benchNet, mobgen.DefaultConfig(nObjects, 13))
	buf := make([]mobgen.Update, 0, nObjects)
	for t := 0; t < 10; t++ {
		gen.StepInto(60, buf)
	}
	seed := make([]PrivateUpdate, 0, nObjects)
	for _, u := range gen.PositionsInto(buf) {
		seed = append(seed, PrivateUpdate{ID: u.ID, Region: snapOut(benchCloak(u.Pos, 60), world.Width()/64)})
	}
	if err := m.ApplyUpdates(seed); err != nil {
		b.Fatal(err)
	}

	watches := make(map[int64]benchWatch, nWatches)
	heap0 := liveHeap()
	stride := int64(max(1, nObjects/nWatches))
	for i := 0; i < nWatches; i++ {
		pid := int64(i) * stride
		cloak := m.privSlots.rect(pid)
		var w benchWatch
		var err error
		switch i % 3 {
		case 0:
			w.id, _, err = m.RegisterNN(cloak, privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
		case 1:
			w.id, _, err = m.RegisterNN(cloak, privacyqp.PrivateData, privacyqp.DefaultOptions(), pid)
		default:
			w.id, _, err = m.RegisterRadius(cloak, 500, privacyqp.PrivateData, pid)
			w.radius = true
		}
		if err != nil {
			b.Fatal(err)
		}
		watches[pid] = w
	}
	perWatch := float64(int64(liveHeap())-int64(heap0)) / float64(nWatches)

	const ticks = 8
	trace := make([]PrivateUpdate, 0, ticks*nObjects)
	for t := 0; t < ticks; t++ {
		for _, u := range gen.StepInto(5, buf) {
			trace = append(trace, PrivateUpdate{ID: u.ID, Region: snapOut(benchCloak(u.Pos, 60), world.Width()/64)})
		}
	}
	// Each tick lists its users in ID order; shuffle so a short run
	// samples every user, not the lowest IDs.
	rand.New(rand.NewSource(37)).Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
	return m, watches, trace, perWatch
}

// liveHeap returns HeapAlloc after two collections: the bytes still
// reachable, pooled buffers dropped.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type benchWatch struct {
	id     QueryID
	radius bool
}

// BenchmarkMonitorBuddies is the write path of a service whose
// standing queries are mostly over private data: each op moves one
// user, and an asker's own watch follows her cloak, the order a
// location server feeds the monitor. evals/update counts Algorithm 2
// re-runs per monitor update (data and asker moves alike); deltas
// absorb the rest. B/watch is the live heap one standing query retains
// after registration: its state, its candidate list and its index
// entry.
func BenchmarkMonitorBuddies(b *testing.B) {
	m, watches, trace, perWatch := benchBuddies(b, 4000, 20000)
	upd0, evals0 := m.Updates(), m.Evaluations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := trace[i%len(trace)]
		if err := upsert(m, u.ID, u.Region); err != nil {
			b.Fatal(err)
		}
		w, ok := watches[u.ID]
		var err error
		switch {
		case !ok:
		case w.radius:
			err = m.UpdateRadiusCloak(w.id, u.Region)
		default:
			err = m.UpdateNNCloak(w.id, u.Region)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Evaluations()-evals0)/float64(m.Updates()-upd0), "evals/update")
	b.ReportMetric(perWatch, "B/watch")
}

// BenchmarkMonitorBatchIngest measures ApplyUpdates amortization: one
// op ingests a whole 256-update mobgen batch under one acquisition of
// the monitor lock, re-evaluating each touched query once. The
// updates/op metric makes the per-update cost comparable to
// BenchmarkMonitorIndexedUpdate.
func BenchmarkMonitorBatchIngest(b *testing.B) {
	const batchSize = 256
	m, trace := benchMonitor(b, 10000, 2048)
	nBatches := len(trace) / batchSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % nBatches) * batchSize
		if err := m.ApplyUpdates(trace[off : off+batchSize]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(batchSize, "updates/op")
	// One op is one apply tick, so ns/op is the per-tick cost
	// casper_monitor_apply_seconds exports at runtime; the queue
	// high-water mark is casper_monitor_queue_high_water's figure.
	_, hw := m.QueueStats()
	b.ReportMetric(float64(hw), "queuehw/run")
}

// BenchmarkMonitorNNRecloak drives a moving-asker trace through
// standing NN watches and reports the exact cost of a cloak movement:
// full re-evaluations per update, and how many updates kept their list
// because the new cloak lay inside the last evaluated one.
func BenchmarkMonitorNNRecloak(b *testing.B) {
	const nAskers = 64
	m, _ := benchMonitor(b, 1000, 1024)
	gen := mobgen.New(benchNet, mobgen.DefaultConfig(nAskers, 31))
	watches := make([]QueryID, nAskers)
	for i, u := range gen.Positions() {
		id, _, err := m.RegisterNN(benchCloak(u.Pos, 150), privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
		if err != nil {
			b.Fatal(err)
		}
		watches[i] = id
	}
	const ticks = 256
	pos := make([][]geom.Point, ticks)
	buf := make([]mobgen.Update, 0, nAskers)
	for t := range pos {
		pos[t] = make([]geom.Point, nAskers)
		for i, u := range gen.StepInto(2, buf) {
			pos[t][i] = u.Pos
		}
	}
	evals0, hits0 := m.Evaluations(), m.SafeRegionHits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, a := (i/nAskers)%ticks, i%nAskers
		if err := m.UpdateNNCloak(watches[a], benchCloak(pos[t][a], 150)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(m.Evaluations()-evals0)/n, "evals/update")
	b.ReportMetric(float64(m.SafeRegionHits()-hits0)/n, "safehits/update")
}
