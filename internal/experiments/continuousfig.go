package experiments

import (
	"fmt"
	"math"
	"time"

	"casper/internal/continuous"
	"casper/internal/geom"
	"casper/internal/mobgen"
	"casper/internal/privacyqp"
)

// FigX4 is the continuous-query panel (no counterpart in the paper,
// which evaluates snapshot queries only): per-location-update
// maintenance cost of the standing-query monitor as the number of
// registered queries grows.
func FigX4(w *World) Table {
	t := Table{
		ID:      "X4",
		Title:   "continuous maintenance vs standing queries (us/update) — monitor panel",
		Columns: []string{"queries", "us/upd"},
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
		t.AddRow(fmt.Sprint(nq), us(w.timeMonitorUpdates(nq, nUpd, cloak)))
	}
	return t
}

// buildMonitor assembles a monitor over the world's targets and user
// cloaks with nq standing queries (80% range counts, 15% public NN,
// 5% private radius — the monitor's three kinds).
func (w *World) buildMonitor(nq int) *continuous.Monitor {
	m := continuous.NewMonitor(continuous.Config{Universe: w.Universe})
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
	m := w.buildMonitor(nq)
	defer m.Close()
	start := time.Now()
	for i := 0; i < nUpd; i++ {
		if err := m.ApplyUpdates([]continuous.PrivateUpdate{{ID: int64(i), Region: cloak(w.Moved[i])}}); err != nil {
			panic(fmt.Sprintf("experiments: monitor update %d: %v", i, err))
		}
	}
	return time.Since(start) / time.Duration(nUpd)
}
