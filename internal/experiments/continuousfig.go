package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"casper/internal/continuous"
	"casper/internal/geom"
	"casper/internal/mobgen"
	"casper/internal/privacyqp"
)

// FigX4 is the continuous-query panel (no counterpart in the paper,
// which evaluates snapshot queries only): per-location-update
// maintenance cost of the standing-query monitor as the number of
// registered queries grows, plus the safe-region effect on asker
// movement (full re-evaluations per cloak move; 1.0 means every move
// re-runs the query, the paper's implicit baseline).
func FigX4(w *World) Table {
	t := Table{
		ID:      "X4",
		Title:   "continuous maintenance vs standing queries (us/update) — monitor panel",
		Columns: []string{"queries", "us/upd", "evals/move"},
	}
	// One movement step of the shared trace, cloaked at 4 leaf cells,
	// is the update workload, capped at 2000 updates.
	nUpd := w.P.Users
	if nUpd > 2000 {
		nUpd = 2000
	}
	half := math.Sqrt(4*w.LeafCellArea()) / 2
	cloak := func(p geom.Point) geom.Rect {
		return geom.R(p.X-half, p.Y-half, p.X+half, p.Y+half).ClipTo(w.Universe)
	}

	for _, nq := range []int{w.P.Users / 12, w.P.Users / 3, w.P.Users} {
		perUpd := w.timeMonitorUpdates(nq, nUpd, cloak)
		evals := w.measureSafeRegionMoves(nq, cloak)
		t.AddRow(fmt.Sprint(nq), us(perUpd), f2(evals))
	}
	return t
}

// buildMonitor assembles a monitor over the world's targets and user
// cloaks with nq standing queries (80% range counts, 15% public NN,
// 5% private radius — the monitor's three kinds), evaluating NN and
// radius queries at cloaks inflated by safeFrac (Config.SafeRegionFrac).
func (w *World) buildMonitor(safeFrac float64, nq int) *continuous.Monitor {
	m := continuous.NewMonitor(continuous.Config{Universe: w.Universe, SafeRegionFrac: safeFrac})
	m.SetPublic(w.PublicTree(w.P.Targets).All())
	half := math.Sqrt(4*w.LeafCellArea()) / 2
	seed := make([]continuous.PrivateUpdate, len(w.Initial))
	for i, p := range w.Initial {
		seed[i] = continuous.PrivateUpdate{
			ID:     int64(i),
			Region: geom.R(p.X-half, p.Y-half, p.X+half, p.Y+half).ClipTo(w.Universe),
		}
	}
	if err := m.ApplyUpdates(seed); err != nil {
		panic(fmt.Sprintf("experiments: seed monitor: %v", err))
	}
	leaf := w.LeafCellArea()
	rects := mobgen.UniformRects(w.Universe, nq, 4*leaf, 64*leaf, w.P.Seed+20)
	cloaks := mobgen.UniformRects(w.Universe, nq, 16*leaf, 64*leaf, w.P.Seed+21)
	for i := 0; i < nq; i++ {
		var err error
		switch {
		case i%20 < 16:
			_, _, err = m.RegisterRangeCount(rects[i], privacyqp.CountFractional)
		case i%20 < 19:
			_, _, err = m.RegisterNN(cloaks[i], privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
		default:
			_, _, err = m.RegisterRadius(cloaks[i], w.Universe.Width()/20, privacyqp.PrivateData, -1)
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: register standing query %d: %v", i, err))
		}
	}
	return m
}

// timeMonitorUpdates replays nUpd movement updates through a fresh
// monitor with nq standing queries and returns the mean wall time per
// update.
func (w *World) timeMonitorUpdates(nq, nUpd int, cloak func(geom.Point) geom.Rect) time.Duration {
	m := w.buildMonitor(0, nq)
	defer m.Close()
	start := time.Now()
	for i := 0; i < nUpd; i++ {
		if err := m.UpsertPrivate(int64(i), cloak(w.Moved[i])); err != nil {
			panic(fmt.Sprintf("experiments: monitor update %d: %v", i, err))
		}
	}
	return time.Since(start) / time.Duration(nUpd)
}

// measureSafeRegionMoves registers moving NN askers against a monitor
// with inflated safe regions and replays the world's movement interval
// at a 6-second reporting cadence (ten interpolated fixes per asker),
// returning full re-evaluations per cloak move. Without safe regions
// this is exactly 1.0: every reported fix re-runs the query.
func (w *World) measureSafeRegionMoves(nq int, cloak func(geom.Point) geom.Rect) float64 {
	// Evaluate at a cloak inflated by 0.7x its larger side: the larger
	// A_EXT buys a safe region wide enough to absorb several reporting
	// intervals (frac 0 would re-evaluate on almost every fix).
	m := w.buildMonitor(0.7, nq)
	defer m.Close()
	nAskers := 200
	if nAskers > len(w.Initial) {
		nAskers = len(w.Initial)
	}
	rng := rand.New(rand.NewSource(w.P.Seed + 22))
	ids := make([]continuous.QueryID, nAskers)
	picks := make([]int, nAskers)
	for i := range ids {
		picks[i] = rng.Intn(len(w.Initial))
		id, _, err := m.RegisterNN(cloak(w.Initial[picks[i]]), privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
		if err != nil {
			panic(fmt.Sprintf("experiments: register asker %d: %v", i, err))
		}
		ids[i] = id
	}
	const fixes = 10
	evals0 := m.Evaluations()
	for s := 1; s <= fixes; s++ {
		frac := float64(s) / fixes
		for i, id := range ids {
			a, b := w.Initial[picks[i]], w.Moved[picks[i]]
			p := geom.Pt(a.X+(b.X-a.X)*frac, a.Y+(b.Y-a.Y)*frac)
			if err := m.UpdateNNCloak(id, cloak(p)); err != nil {
				panic(fmt.Sprintf("experiments: move asker %d: %v", i, err))
			}
		}
	}
	return float64(m.Evaluations()-evals0) / float64(nAskers*fixes)
}
