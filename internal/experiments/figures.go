package experiments

import (
	"fmt"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
	"casper/internal/stats"
)

// Sweep values shared by figures, mirroring the paper's x-axes.
var (
	// heightSweep is the pyramid height axis of Fig. 10.
	heightSweep = []int{4, 5, 6, 7, 8, 9}
	// kGroupsAccuracy are the user groups of Fig. 10c ("most relaxed"
	// to "restrictive").
	kGroupsAccuracy = [][2]int{{1, 10}, {40, 50}, {90, 100}, {150, 200}}
	// aminGroupsAccuracy are the Amin groups of Fig. 10d, as fractions
	// of the universe area.
	aminGroupsAccuracy = [][2]float64{{1e-5, 2e-5}, {5e-5, 1e-4}, {2e-4, 4e-4}, {1e-3, 2e-3}}
	// kGroupsCloaking is the x-axis of Fig. 12 and Fig. 17b.
	kGroupsCloaking = [][2]int{{1, 10}, {50, 60}, {100, 110}, {150, 200}}
	// kGroupsSmall is the x-axis of Fig. 17a.
	kGroupsSmall = [][2]int{{1, 10}, {10, 20}, {20, 30}, {30, 40}, {40, 50}}
	// filterSweep is the filter-count axis of Figures 13-16.
	filterSweep = []int{1, 2, 4}
	// queryCellSweep is the cloaked-query-region axis of Fig. 15.
	queryCellSweep = []int{4, 16, 64, 256, 1024}
	// dataCellSweep is the target-region axis of Fig. 16.
	dataCellSweep = []int{4, 16, 64, 256}
)

// userSweep returns the Fig. 11 population axis scaled to the
// configured maximum (1K..50K in the paper).
func userSweep(max int) []int {
	fracs := []float64{0.02, 0.1, 0.2, 0.5, 1.0}
	out := make([]int, 0, len(fracs))
	for _, f := range fracs {
		n := int(float64(max) * f)
		if n < 10 {
			n = 10
		}
		out = append(out, n)
	}
	return out
}

func kLabel(g [2]int) string { return fmt.Sprintf("[%d-%d]", g[0], g[1]) }

// measureCloakTime reports the per-request cloaking time over samples
// requests for random registered users, as a median over timing
// batches so a stray GC pause cannot distort a table cell (the cost
// being measured includes unsatisfiable profiles — they climb the full
// pyramid too).
func (w *World) measureCloakTime(a anonymizer.Anonymizer, samples int) time.Duration {
	users := a.Users()
	uids := make([]anonymizer.UserID, samples)
	for i := range uids {
		uids[i] = anonymizer.UserID(w.rng.Intn(users))
	}
	const batches = 10
	batchSize := samples / batches
	if batchSize < 1 {
		batchSize = 1
	}
	i := 0
	return stats.MedianBatchTime(batches, batchSize, func() {
		uid := uids[i%len(uids)]
		i++
		_, _ = a.Cloak(uid)
	})
}

// Fig10a regenerates Fig. 10a: average cloaking time vs pyramid
// height, basic vs adaptive.
func Fig10a(w *World) Table {
	t := Table{
		ID:      "F10a",
		Title:   "cloaking time vs pyramid height (us/request)",
		Columns: []string{"height", "basic", "adaptive"},
	}
	for _, h := range heightSweep {
		basic := w.BuildBasic(h, w.P.Users, w.Profiles)
		adaptive := w.BuildAdaptive(h, w.P.Users, w.Profiles)
		bt := w.measureCloakTime(basic, w.P.CloakSamples)
		at := w.measureCloakTime(adaptive, w.P.CloakSamples)
		t.AddRow(fmt.Sprint(h), us(bt), us(at))
	}
	return t
}

// Fig10b regenerates Fig. 10b: cell-counter updates per location
// update vs pyramid height.
func Fig10b(w *World) Table {
	t := Table{
		ID:      "F10b",
		Title:   "maintenance cost vs pyramid height (counter updates per location update)",
		Columns: []string{"height", "basic", "adaptive"},
	}
	for _, h := range heightSweep {
		basic := w.BuildBasic(h, w.P.Users, w.Profiles)
		adaptive := w.BuildAdaptive(h, w.P.Users, w.Profiles)
		basic.ResetUpdateCost()
		adaptive.ResetUpdateCost()
		n := w.ApplyMovement(basic, w.P.Users)
		w.ApplyMovement(adaptive, w.P.Users)
		t.AddRow(fmt.Sprint(h),
			f2(float64(basic.UpdateCost())/float64(n)),
			f2(float64(adaptive.UpdateCost())/float64(n)))
	}
	return t
}

// Fig10c regenerates Fig. 10c: cloaked-region k-accuracy (k'/k) vs
// pyramid height for user groups from relaxed to restrictive; both
// anonymizers produce the same regions, so one series per group
// suffices (the paper plots the shared curve).
func Fig10c(w *World) Table {
	t := Table{
		ID:      "F10c",
		Title:   "k accuracy (k'/k, 1.0 is optimal) vs pyramid height",
		Columns: append([]string{"height"}, labelsK(kGroupsAccuracy)...),
	}
	for _, h := range heightSweep {
		basic := w.BuildBasic(h, w.P.Users, w.Profiles)
		row := []string{fmt.Sprint(h)}
		for _, g := range kGroupsAccuracy {
			sum, n := 0.0, 0
			for i := 0; i < w.P.CloakSamples/4; i++ {
				pos := w.Initial[w.rng.Intn(len(w.Initial))]
				k := g[0] + w.rng.Intn(g[1]-g[0]+1)
				cr, err := basic.CloakAt(pos, anonymizer.Profile{K: k})
				if err != nil {
					continue
				}
				sum += float64(cr.KFound) / float64(k)
				n++
			}
			row = append(row, f2(sum/float64(max(n, 1))))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig10d regenerates Fig. 10d: area accuracy (A'/Amin) vs pyramid
// height for Amin groups, k fixed to 1.
func Fig10d(w *World) Table {
	cols := []string{"height"}
	for _, g := range aminGroupsAccuracy {
		cols = append(cols, fmt.Sprintf("Amin[%.4f%%-%.4f%%]", g[0]*100, g[1]*100))
	}
	t := Table{
		ID:      "F10d",
		Title:   "area accuracy (A'/Amin, 1.0 is optimal) vs pyramid height",
		Columns: cols,
	}
	area := w.Universe.Area()
	for _, h := range heightSweep {
		basic := w.BuildBasic(h, w.P.Users, w.Profiles)
		row := []string{fmt.Sprint(h)}
		for _, g := range aminGroupsAccuracy {
			sum, n := 0.0, 0
			for i := 0; i < w.P.CloakSamples/4; i++ {
				pos := w.Initial[w.rng.Intn(len(w.Initial))]
				amin := (g[0] + w.rng.Float64()*(g[1]-g[0])) * area
				cr, err := basic.CloakAt(pos, anonymizer.Profile{K: 1, AMin: amin})
				if err != nil {
					continue
				}
				sum += cr.Region.Area() / amin
				n++
			}
			row = append(row, f2(sum/float64(max(n, 1))))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11a regenerates Fig. 11a: cloaking time vs number of users.
func Fig11a(w *World) Table {
	t := Table{
		ID:      "F11a",
		Title:   "cloaking time vs number of users (us/request)",
		Columns: []string{"users", "basic", "adaptive"},
	}
	for _, n := range userSweep(w.P.Users) {
		basic := w.BuildBasic(w.P.Levels, n, w.Profiles)
		adaptive := w.BuildAdaptive(w.P.Levels, n, w.Profiles)
		t.AddRow(fmt.Sprint(n),
			us(w.measureCloakTime(basic, w.P.CloakSamples)),
			us(w.measureCloakTime(adaptive, w.P.CloakSamples)))
	}
	return t
}

// Fig11b regenerates Fig. 11b: maintenance cost vs number of users.
func Fig11b(w *World) Table {
	t := Table{
		ID:      "F11b",
		Title:   "maintenance cost vs number of users (counter updates per location update)",
		Columns: []string{"users", "basic", "adaptive"},
	}
	for _, n := range userSweep(w.P.Users) {
		basic := w.BuildBasic(w.P.Levels, n, w.Profiles)
		adaptive := w.BuildAdaptive(w.P.Levels, n, w.Profiles)
		basic.ResetUpdateCost()
		adaptive.ResetUpdateCost()
		w.ApplyMovement(basic, n)
		w.ApplyMovement(adaptive, n)
		t.AddRow(fmt.Sprint(n),
			f2(float64(basic.UpdateCost())/float64(n)),
			f2(float64(adaptive.UpdateCost())/float64(n)))
	}
	return t
}

// Fig12a regenerates Fig. 12a: cloaking time vs the k-anonymity range
// of the whole population.
func Fig12a(w *World) Table {
	t := Table{
		ID:      "F12a",
		Title:   "cloaking time vs k range (us/request)",
		Columns: []string{"k range", "basic", "adaptive"},
	}
	for _, g := range kGroupsCloaking {
		profiles := w.MakeProfiles(w.P.Users, g, w.P.AminFrac)
		basic := w.BuildBasic(w.P.Levels, w.P.Users, profiles)
		adaptive := w.BuildAdaptive(w.P.Levels, w.P.Users, profiles)
		t.AddRow(kLabel(g),
			us(w.measureCloakTime(basic, w.P.CloakSamples)),
			us(w.measureCloakTime(adaptive, w.P.CloakSamples)))
	}
	return t
}

// Fig12b regenerates Fig. 12b: maintenance cost vs k range.
func Fig12b(w *World) Table {
	t := Table{
		ID:      "F12b",
		Title:   "maintenance cost vs k range (counter updates per location update)",
		Columns: []string{"k range", "basic", "adaptive"},
	}
	for _, g := range kGroupsCloaking {
		profiles := w.MakeProfiles(w.P.Users, g, w.P.AminFrac)
		basic := w.BuildBasic(w.P.Levels, w.P.Users, profiles)
		adaptive := w.BuildAdaptive(w.P.Levels, w.P.Users, profiles)
		basic.ResetUpdateCost()
		adaptive.ResetUpdateCost()
		w.ApplyMovement(basic, w.P.Users)
		w.ApplyMovement(adaptive, w.P.Users)
		t.AddRow(kLabel(g),
			f2(float64(basic.UpdateCost())/float64(w.P.Users)),
			f2(float64(adaptive.UpdateCost())/float64(w.P.Users)))
	}
	return t
}

// queryStats runs the privacy-aware query processor over the given
// cloaks and returns the mean candidate-list size and the
// median-of-batches per-query processing time (robust to GC pauses).
func queryStats(db *rtree.Tree, cloaks []geom.Rect, kind privacyqp.DataKind, filters int) (float64, time.Duration) {
	opt := privacyqp.Options{Filters: filters}
	totalCand := 0
	for _, c := range cloaks {
		res, err := privacyqp.PrivateNN(db, c, kind, opt)
		if err != nil {
			panic(fmt.Sprintf("experiments: query failed: %v", err))
		}
		totalCand += len(res.Candidates)
	}
	const batches = 8
	batchSize := len(cloaks) / batches
	if batchSize < 1 {
		batchSize = 1
	}
	i := 0
	qt := stats.MedianBatchTime(batches, batchSize, func() {
		_, _ = privacyqp.PrivateNN(db, cloaks[i%len(cloaks)], kind, opt)
		i++
	})
	return float64(totalCand) / float64(len(cloaks)), qt
}

// targetSweep is the Fig. 13/14 x-axis scaled to the configured
// maximum (1K..10K in the paper).
func targetSweep(max int) []int {
	fracs := []float64{0.1, 0.25, 0.5, 1.0}
	out := make([]int, 0, len(fracs))
	for _, f := range fracs {
		n := int(float64(max) * f)
		if n < 10 {
			n = 10
		}
		out = append(out, n)
	}
	return out
}

// figTargets is the shared engine for Figures 13 and 14: sweep the
// target population, one series per filter count, reporting either
// candidate-list size or query processing time.
func figTargets(w *World, kind privacyqp.DataKind, wantTime bool, id, title string) Table {
	t := Table{
		ID:      id,
		Title:   title,
		Columns: []string{"targets", "1 filter", "2 filters", "4 filters"},
	}
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, w.P.QuerySamples)
	for _, n := range targetSweep(w.P.Targets) {
		var db *rtree.Tree
		if kind == privacyqp.PublicData {
			db = w.PublicTree(n)
		} else {
			db = w.PrivateTree(n, w.P.PrivateCells)
		}
		row := []string{fmt.Sprint(n)}
		for _, f := range filterSweep {
			cand, qt := queryStats(db, cloaks, kind, f)
			if wantTime {
				row = append(row, us(qt))
			} else {
				row = append(row, f1(cand))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig13a regenerates Fig. 13a: candidate list size vs number of
// public targets, for 1/2/4 filters.
func Fig13a(w *World) Table {
	return figTargets(w, privacyqp.PublicData, false,
		"F13a", "candidate list size vs public targets")
}

// Fig13b regenerates Fig. 13b: query processing time vs public
// targets.
func Fig13b(w *World) Table {
	return figTargets(w, privacyqp.PublicData, true,
		"F13b", "query processing time vs public targets (us/query)")
}

// Fig14a regenerates Fig. 14a: candidate list size vs private
// targets.
func Fig14a(w *World) Table {
	return figTargets(w, privacyqp.PrivateData, false,
		"F14a", "candidate list size vs private targets")
}

// Fig14b regenerates Fig. 14b: query processing time vs private
// targets.
func Fig14b(w *World) Table {
	return figTargets(w, privacyqp.PrivateData, true,
		"F14b", "query processing time vs private targets (us/query)")
}

// figRegionSize is the shared engine for Figures 15 and 16: sweep a
// region-size axis with fixed-size query cloaks.
func figRegionSize(w *World, cellsAxis []int, kind privacyqp.DataKind, dataCells [2]int, wantTime bool, id, title string, sweepQuery bool) Table {
	t := Table{
		ID:      id,
		Title:   title,
		Columns: []string{"cells", "1 filter", "2 filters", "4 filters"},
	}
	for _, cells := range cellsAxis {
		var db *rtree.Tree
		var cloaks []geom.Rect
		if sweepQuery {
			// Fig. 15: query region size varies, targets fixed.
			if kind == privacyqp.PublicData {
				db = w.PublicTree(w.P.Targets)
			} else {
				db = w.PrivateTree(w.P.Targets, dataCells)
			}
			cloaks = w.FixedSizeCloaks(w.P.QuerySamples, cells)
		} else {
			// Fig. 16: data region size varies, query cloaks from the
			// default profiles.
			db = w.PrivateTree(w.P.Targets, [2]int{cells, cells})
			anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
			cloaks = w.SampleCloaks(anon, w.P.QuerySamples)
		}
		row := []string{fmt.Sprint(cells)}
		for _, f := range filterSweep {
			cand, qt := queryStats(db, cloaks, kind, f)
			if wantTime {
				row = append(row, us(qt))
			} else {
				row = append(row, f1(cand))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig15a regenerates Fig. 15a: candidate list size vs cloaked query
// region size (public data).
func Fig15a(w *World) Table {
	return figRegionSize(w, queryCellSweep, privacyqp.PublicData, w.P.PrivateCells, false,
		"F15a", "candidate list size vs query region size (public data)", true)
}

// Fig15b regenerates Fig. 15b: query processing time vs query region
// size.
func Fig15b(w *World) Table {
	return figRegionSize(w, queryCellSweep, privacyqp.PublicData, w.P.PrivateCells, true,
		"F15b", "query processing time vs query region size (us/query, public data)", true)
}

// Fig16a regenerates Fig. 16a: candidate list size vs private target
// region size.
func Fig16a(w *World) Table {
	return figRegionSize(w, dataCellSweep, privacyqp.PrivateData, w.P.PrivateCells, false,
		"F16a", "candidate list size vs data region size (private data)", false)
}

// Fig16b regenerates Fig. 16b: query processing time vs private
// target region size.
func Fig16b(w *World) Table {
	return figRegionSize(w, dataCellSweep, privacyqp.PrivateData, w.P.PrivateCells, true,
		"F16b", "query processing time vs data region size (us/query, private data)", false)
}

// Fig17 regenerates Fig. 17a/b: the end-to-end time breakdown
// (cloaking + query processing + candidate transmission) vs the
// population's k range, for public and private target data. large
// selects the extended k axis of panel (b).
func Fig17(w *World, large bool) Table {
	groups := kGroupsSmall
	id, axis := "F17a", "small k"
	if large {
		groups = kGroupsCloaking
		id, axis = "F17b", "large k"
	}
	t := Table{
		ID:    id,
		Title: "end-to-end breakdown vs k range (" + axis + ", us/query)",
		Columns: []string{
			"k range", "data", "cloak", "query", "transmit", "total", "candidates",
		},
	}
	publicDB := w.PublicTree(w.P.Targets)
	privateDB := w.PrivateTree(w.P.Targets, w.P.PrivateCells)
	tx := core.DefaultTransmission()
	for _, g := range groups {
		profiles := w.MakeProfiles(w.P.Users, g, w.P.AminFrac)
		anon := w.BuildAdaptive(w.P.Levels, w.P.Users, profiles)
		for _, kind := range []privacyqp.DataKind{privacyqp.PublicData, privacyqp.PrivateData} {
			db := publicDB
			if kind == privacyqp.PrivateData {
				db = privateDB
			}
			var cloakT, queryT, txT time.Duration
			totalCand := 0
			for i := 0; i < w.P.QuerySamples; i++ {
				uid := anonymizer.UserID(w.rng.Intn(w.P.Users))
				t0 := time.Now()
				cr, err := anon.Cloak(uid)
				t1 := time.Now()
				if err != nil {
					cr.Region = w.Universe
				}
				res, err := privacyqp.PrivateNN(db, cr.Region, kind, privacyqp.Options{Filters: 4})
				if err != nil {
					panic(fmt.Sprintf("experiments: fig17 query: %v", err))
				}
				t2 := time.Now()
				cloakT += t1.Sub(t0)
				queryT += t2.Sub(t1)
				txT += tx.Time(len(res.Candidates))
				totalCand += len(res.Candidates)
			}
			n := w.P.QuerySamples
			t.AddRow(kLabel(g), kind.String(),
				us(avgDuration(cloakT, n)),
				us(avgDuration(queryT, n)),
				us(avgDuration(txT, n)),
				us(avgDuration(cloakT+queryT+txT, n)),
				f1(float64(totalCand)/float64(n)))
		}
	}
	return t
}

func labelsK(groups [][2]int) []string {
	out := make([]string, len(groups))
	for i, g := range groups {
		out[i] = "k" + kLabel(g)
	}
	return out
}

// The paper twice notes that the Amin counterparts of its k sweeps
// behave the same way but were "not shown due to space limitation"
// (Sec. 6.1.3 and 6.3). The X experiments below are those unshown
// panels, reconstructed: the same harness with the privacy knob moved
// from k to Amin.
var aminGroupsSweep = [][2]float64{
	{1e-5, 2e-5}, {5e-5, 1e-4}, {5e-4, 1e-3}, {2e-3, 5e-3},
}

func aminLabel(g [2]float64) string {
	return fmt.Sprintf("[%.3f%%-%.3f%%]", g[0]*100, g[1]*100)
}

// FigX1 is the unshown Fig. 12a analogue: cloaking time vs the
// population's Amin range (k fixed at 1 so Amin is the binding
// constraint, as in Fig. 10d).
func FigX1(w *World) Table {
	t := Table{
		ID:      "X1",
		Title:   "cloaking time vs Amin range (us/request) — the panel the paper omitted",
		Columns: []string{"Amin range", "basic", "adaptive"},
	}
	for _, g := range aminGroupsSweep {
		profiles := w.MakeProfiles(w.P.Users, [2]int{1, 1}, g)
		basic := w.BuildBasic(w.P.Levels, w.P.Users, profiles)
		adaptive := w.BuildAdaptive(w.P.Levels, w.P.Users, profiles)
		t.AddRow(aminLabel(g),
			us(w.measureCloakTime(basic, w.P.CloakSamples)),
			us(w.measureCloakTime(adaptive, w.P.CloakSamples)))
	}
	return t
}

// FigX2 is the unshown Fig. 12b analogue: maintenance cost vs Amin.
func FigX2(w *World) Table {
	t := Table{
		ID:      "X2",
		Title:   "maintenance cost vs Amin range (counter updates per location update) — unshown panel",
		Columns: []string{"Amin range", "basic", "adaptive"},
	}
	for _, g := range aminGroupsSweep {
		profiles := w.MakeProfiles(w.P.Users, [2]int{1, 1}, g)
		basic := w.BuildBasic(w.P.Levels, w.P.Users, profiles)
		adaptive := w.BuildAdaptive(w.P.Levels, w.P.Users, profiles)
		basic.ResetUpdateCost()
		adaptive.ResetUpdateCost()
		w.ApplyMovement(basic, w.P.Users)
		w.ApplyMovement(adaptive, w.P.Users)
		t.AddRow(aminLabel(g),
			f2(float64(basic.UpdateCost())/float64(w.P.Users)),
			f2(float64(adaptive.UpdateCost())/float64(w.P.Users)))
	}
	return t
}

// FigX3 is the unshown Fig. 17 analogue: the end-to-end breakdown with
// the Amin knob instead of k.
func FigX3(w *World) Table {
	t := Table{
		ID:    "X3",
		Title: "end-to-end breakdown vs Amin range (us/query) — unshown panel",
		Columns: []string{
			"Amin range", "data", "cloak", "query", "transmit", "total", "candidates",
		},
	}
	publicDB := w.PublicTree(w.P.Targets)
	privateDB := w.PrivateTree(w.P.Targets, w.P.PrivateCells)
	tx := core.DefaultTransmission()
	for _, g := range aminGroupsSweep {
		profiles := w.MakeProfiles(w.P.Users, [2]int{1, 1}, g)
		anon := w.BuildAdaptive(w.P.Levels, w.P.Users, profiles)
		for _, kind := range []privacyqp.DataKind{privacyqp.PublicData, privacyqp.PrivateData} {
			db := publicDB
			if kind == privacyqp.PrivateData {
				db = privateDB
			}
			var cloakT, queryT, txT time.Duration
			totalCand := 0
			for i := 0; i < w.P.QuerySamples; i++ {
				uid := anonymizer.UserID(w.rng.Intn(w.P.Users))
				t0 := time.Now()
				cr, err := anon.Cloak(uid)
				t1 := time.Now()
				if err != nil {
					cr.Region = w.Universe
				}
				res, err := privacyqp.PrivateNN(db, cr.Region, kind, privacyqp.Options{Filters: 4})
				if err != nil {
					panic(fmt.Sprintf("experiments: X3 query: %v", err))
				}
				t2 := time.Now()
				cloakT += t1.Sub(t0)
				queryT += t2.Sub(t1)
				txT += tx.Time(len(res.Candidates))
				totalCand += len(res.Candidates)
			}
			n := w.P.QuerySamples
			t.AddRow(aminLabel(g), kind.String(),
				us(avgDuration(cloakT, n)),
				us(avgDuration(queryT, n)),
				us(avgDuration(txT, n)),
				us(avgDuration(cloakT+queryT+txT, n)),
				f1(float64(totalCand)/float64(n)))
		}
	}
	return t
}
