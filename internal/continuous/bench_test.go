package continuous

import (
	"fmt"
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

// benchMonitor builds a monitor with nObjects moving private users
// (seeded from a mobgen fleet), 2000 public objects, and nQueries
// standing queries: 80% range counts, 15% public-data NN, 5%
// private-data radius. It returns the monitor and a pre-generated
// update trace (8 mobgen ticks, cloaked) for the measured loop, so
// trace generation stays off the benchmark clock.
func benchMonitor(b *testing.B, cfg Config, nQueries, nObjects int) (*Monitor, []PrivateUpdate) {
	b.Helper()
	m := NewMonitor(cfg)
	b.Cleanup(m.Close)

	pts := mobgen.UniformPoints(world, 2000, 7)
	pub := make([]rtree.Item, len(pts))
	for i, p := range pts {
		pub[i] = rtree.Item{ID: int64(i), Rect: geom.R(p.X, p.Y, p.X, p.Y)}
	}
	m.SetPublic(pub)

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
			m, trace := benchMonitor(b, Config{}, q, 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := trace[i%len(trace)]
				if err := m.UpsertPrivate(u.ID, u.Region); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorBatchIngest measures ApplyUpdates amortization: one
// op ingests a whole 256-update mobgen batch under one acquisition of
// the monitor lock, re-evaluating each touched query once. The
// updates/op metric makes the per-update cost comparable to
// BenchmarkMonitorIndexedUpdate.
func BenchmarkMonitorBatchIngest(b *testing.B) {
	const batchSize = 256
	m, trace := benchMonitor(b, Config{}, 10000, 2048)
	nBatches := len(trace) / batchSize
	ticks0, total0 := m.ApplyStats()
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
	// Per-tick apply cost and the delivery-queue high-water mark are
	// the resource-telemetry headline numbers (ROADMAP): the same
	// figures casper_monitor_apply_seconds and
	// casper_monitor_queue_high_water export at runtime.
	if ticks, total := m.ApplyStats(); ticks > ticks0 {
		b.ReportMetric(float64(total-total0)/float64(ticks-ticks0), "applyns/tick")
	}
	_, hw := m.QueueStats()
	b.ReportMetric(float64(hw), "queuehw/run")
}

// BenchmarkMonitorNNRecloak drives a moving-asker trace through
// standing NN watches and reports how many full re-evaluations each
// cloak movement costs. Without safe regions every movement would
// re-evaluate (evals/update = 1); the safe sub-benchmark answers
// movements inside the safe region with a containment check, so its
// evals/update ratio is the safe-region headline.
func BenchmarkMonitorNNRecloak(b *testing.B) {
	const nAskers = 64
	b.Run("safe", func(b *testing.B) {
		m, _ := benchMonitor(b, Config{SafeRegionFrac: 0.7}, 1000, 1024)
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
	})
}
