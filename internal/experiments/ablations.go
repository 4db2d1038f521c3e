package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/baselines"
	"casper/internal/geom"
	"casper/internal/gridindex"
	"casper/internal/mobgen"
	"casper/internal/privacy"
	"casper/internal/privacyqp"
	"casper/internal/roadnet"
	"casper/internal/rtree"
	"casper/internal/server"
)

// AblationNeighborMerge quantifies what the horizontal/vertical
// neighbor combination of Algorithm 1 (lines 5-13) buys: with the step
// disabled the algorithm always climbs to the parent, quadrupling the
// region instead of doubling it, which inflates k'/k.
func AblationNeighborMerge(w *World) Table {
	t := Table{
		ID:      "A1",
		Title:   "Algorithm 1 neighbor-merge ablation (k accuracy k'/k)",
		Columns: []string{"k range", "with merge", "without merge"},
	}
	basic := w.BuildBasic(w.P.Levels, w.P.Users, w.Profiles)
	for _, g := range kGroupsAccuracy {
		var with, without float64
		n := 0
		for i := 0; i < w.P.CloakSamples/4; i++ {
			pos := w.Initial[w.rng.Intn(len(w.Initial))]
			k := g[0] + w.rng.Intn(g[1]-g[0]+1)
			prof := anonymizer.Profile{K: k}
			a, errA := basic.CloakAtOpt(pos, prof, anonymizer.CloakOpts{})
			b, errB := basic.CloakAtOpt(pos, prof, anonymizer.CloakOpts{DisableNeighborMerge: true})
			if errA != nil || errB != nil {
				continue
			}
			with += float64(a.KFound) / float64(k)
			without += float64(b.KFound) / float64(k)
			n++
		}
		t.AddRow(kLabel(g), f2(with/float64(max(n, 1))), f2(without/float64(max(n, 1))))
	}
	return t
}

// AblationNaiveExtremes reproduces the Fig. 4 argument numerically:
// the center-NN shortcut ships one record but answers wrong for a
// substantial fraction of users; shipping everything is always right
// but costs the whole database; Casper's candidate list is always
// right at a small multiple of one record.
func AblationNaiveExtremes(w *World) Table {
	t := Table{
		ID:      "A2",
		Title:   "naive extremes vs candidate list (10K public targets)",
		Columns: []string{"approach", "correct %", "avg bytes shipped"},
	}
	db := w.PublicTree(w.P.Targets)
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	const recordBytes = 64

	samples := w.P.QuerySamples
	naiveCorrect, casperCorrect := 0, 0
	var casperBytes float64
	for i := 0; i < samples; i++ {
		uid := anonymizer.UserID(w.rng.Intn(w.P.Users))
		pos, err := anon.Position(uid)
		if err != nil {
			panic(err)
		}
		cr, err := anon.Cloak(uid)
		if err != nil {
			continue
		}
		// Ground truth.
		truth, _ := db.Nearest(pos, 0)
		// Naive center answer.
		naive, _ := privacyqp.NaiveCenterNN(db, cr.Region, privacyqp.PublicData)
		if naive.ID == truth.Item.ID {
			naiveCorrect++
		}
		// Casper candidate list + refinement.
		res, err := privacyqp.PrivateNN(db, cr.Region, privacyqp.PublicData, privacyqp.DefaultOptions())
		if err != nil {
			panic(err)
		}
		refined, _ := privacyqp.RefineNN(pos, res.Candidates, privacyqp.PublicData)
		if refined.ID == truth.Item.ID {
			casperCorrect++
		}
		casperBytes += float64(len(res.Candidates) * recordBytes)
	}
	pct := func(n int) string { return f1(100 * float64(n) / float64(samples)) }
	t.AddRow("naive center-NN", pct(naiveCorrect), fmt.Sprint(recordBytes))
	t.AddRow("casper candidates", pct(casperCorrect), f1(casperBytes/float64(samples)))
	t.AddRow("naive ship-all", "100.0", fmt.Sprint(w.P.Targets*recordBytes))
	return t
}

// AblationCloakers compares Casper's adaptive anonymizer against the
// two related-work cloakers (Sec. 2): per-request cloaking time,
// success rate, and the boundary privacy leak of MBR-based regions.
func AblationCloakers(w *World) Table {
	t := Table{
		ID:      "A3",
		Title:   "cloaker comparison (uniform k, per-request)",
		Columns: []string{"k", "cloaker", "time us", "success %", "boundary leak"},
	}
	// Keep the population modest: the quadtree baseline scans all
	// users per level per request, which is exactly the scalability
	// wall being demonstrated.
	n := w.P.Users
	if n > 5000 {
		n = 5000
	}
	samples := w.P.CloakSamples / 4
	if samples > n {
		samples = n
	}
	for _, k := range []int{5, 10, 20, 50} {
		profiles := w.MakeProfiles(n, [2]int{k, k}, [2]float64{0, 0})
		casperAnon := w.BuildAdaptive(w.P.Levels, n, profiles)

		quad := baselines.NewQuadtreeCloak(w.Universe, k)
		clique := baselines.NewCliqueCloak(w.Universe.Width() / 20)
		for i := 0; i < n; i++ {
			quad.Set(int64(i), w.Initial[i])
			clique.Submit(baselines.Request{UID: int64(i), Pos: w.Initial[i], K: k})
		}

		// Casper.
		var ct time.Duration
		okCt := 0
		start := time.Now()
		for i := 0; i < samples; i++ {
			if _, err := casperAnon.Cloak(anonymizer.UserID(i)); err == nil {
				okCt++
			}
		}
		ct = time.Since(start)
		t.AddRow(fmt.Sprint(k), "casper-adaptive",
			us(avgDuration(ct, samples)), f1(100*float64(okCt)/float64(samples)), "0")

		// Quadtree cloaking.
		var qt time.Duration
		okQt, leakQt := 0, 0
		start = time.Now()
		for i := 0; i < samples; i++ {
			if r, err := quad.Cloak(int64(i)); err == nil {
				okQt++
				leakQt += baselines.BoundaryLeak(r, w.Initial[:n])
			}
		}
		qt = time.Since(start)
		t.AddRow(fmt.Sprint(k), "quadtree",
			us(avgDuration(qt, samples)), f1(100*float64(okQt)/float64(samples)),
			f2(float64(leakQt)/float64(max(okQt, 1))))

		// CliqueCloak: each successful cloak serves a whole group, so
		// iterate until the pending set can no longer serve.
		var lt time.Duration
		okLt, leakLt, attempts := 0, 0, 0
		start = time.Now()
		for i := 0; i < samples; i++ {
			attempts++
			r, members, err := clique.Cloak(int64(i))
			if err != nil {
				continue
			}
			okLt++
			memberPts := make([]geom.Point, len(members))
			for j, m := range members {
				memberPts[j] = w.Initial[m]
			}
			leakLt += baselines.BoundaryLeak(r, memberPts)
		}
		lt = time.Since(start)
		t.AddRow(fmt.Sprint(k), "cliquecloak",
			us(avgDuration(lt, attempts)), f1(100*float64(okLt)/float64(max(attempts, 1))),
			f2(float64(leakLt)/float64(max(okLt, 1))))
	}
	return t
}

// AblationIndexes substantiates the paper's index-independence claim
// (Sec. 5.1.1) two ways: the candidate lists are identical whichever
// spatial access method serves the query (checked, not assumed), and
// the per-query cost difference between the R-tree and a uniform grid
// quantifies what the pluggability costs.
func AblationIndexes(w *World) Table {
	t := Table{
		ID:      "A4",
		Title:   "spatial index ablation (identical answers, differing cost)",
		Columns: []string{"index", "NN us", "range us", "avg candidates", "answers match"},
	}
	pts := mobgen.UniformPoints(w.Universe, w.P.Targets, w.P.Seed+10)
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)}
	}
	tree := rtree.BulkLoad(append([]rtree.Item(nil), items...))
	grid := gridindex.New(w.Universe, 64)
	for _, it := range items {
		grid.Insert(it)
	}
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, w.P.QuerySamples)

	type indexCase struct {
		name string
		db   privacyqp.SpatialIndex
	}
	results := map[string][]int{}
	var rows []indexCase
	rows = append(rows, indexCase{"rtree", tree}, indexCase{"gridindex", grid})
	for _, ic := range rows {
		var nnTime, rangeTime time.Duration
		totalCands := 0
		var sizes []int
		for _, c := range cloaks {
			t0 := time.Now()
			res, err := privacyqp.PrivateNN(ic.db, c, privacyqp.PublicData, privacyqp.DefaultOptions())
			if err != nil {
				panic(err)
			}
			t1 := time.Now()
			if _, err := privacyqp.PrivateRange(ic.db, c, 1000, privacyqp.PublicData); err != nil {
				panic(err)
			}
			t2 := time.Now()
			nnTime += t1.Sub(t0)
			rangeTime += t2.Sub(t1)
			totalCands += len(res.Candidates)
			sizes = append(sizes, len(res.Candidates))
		}
		results[ic.name] = sizes
		match := "-"
		if other, ok := results["rtree"]; ok && ic.name == "gridindex" {
			match = "yes"
			for i := range sizes {
				if sizes[i] != other[i] {
					match = "NO"
					break
				}
			}
		}
		n := len(cloaks)
		t.AddRow(ic.name,
			us(avgDuration(nnTime, n)),
			us(avgDuration(rangeTime, n)),
			f1(float64(totalCands)/float64(n)),
			match)
	}
	return t
}

// AblationWAL measures what durability costs: cloak-update throughput
// against the in-memory server versus the WAL-backed server (buffered
// appends and with per-update fsync).
func AblationWAL(w *World) Table {
	t := Table{
		ID:      "A5",
		Title:   "WAL ablation (cloak-update cost at the server)",
		Columns: []string{"server", "us/update"},
	}
	n := w.P.QuerySamples * 20
	regions := make([]geom.Rect, n)
	for i := range regions {
		x, y := w.rng.Float64()*w.Universe.Width()*0.9, w.rng.Float64()*w.Universe.Height()*0.9
		regions[i] = geom.R(x, y, x+200, y+200)
	}

	mem := server.New()
	start := time.Now()
	for i, r := range regions {
		if err := mem.UpsertPrivate(server.PrivateObject{ID: int64(i % 500), Region: r}); err != nil {
			panic(err)
		}
	}
	t.AddRow("in-memory", us(avgDuration(time.Since(start), n)))

	dir, err := os.MkdirTemp("", "casper-wal-ablation")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	durable, err := server.OpenPersistent(filepath.Join(dir, "a5.wal"))
	if err != nil {
		panic(err)
	}
	start = time.Now()
	for i, r := range regions {
		if err := durable.UpsertPrivate(server.PrivateObject{ID: int64(i % 500), Region: r}); err != nil {
			panic(err)
		}
	}
	if err := durable.Sync(); err != nil {
		panic(err)
	}
	t.AddRow("wal (buffered)", us(avgDuration(time.Since(start), n)))

	syncEvery := 100
	start = time.Now()
	for i, r := range regions {
		if err := durable.UpsertPrivate(server.PrivateObject{ID: int64(i % 500), Region: r}); err != nil {
			panic(err)
		}
		if i%syncEvery == 0 {
			if err := durable.Sync(); err != nil {
				panic(err)
			}
		}
	}
	t.AddRow("wal (fsync every 100)", us(avgDuration(time.Since(start), n)))
	if err := durable.Close(); err != nil {
		panic(err)
	}
	return t
}

// AblationAdversary runs the privacy audits of internal/privacy over
// three cloaking schemes: Casper's grid-aligned regions, the
// CliqueCloak MBRs, and a deliberately broken user-centered scheme.
// The paper's quality claim (Sec. 4.3) predicts normalized guess error
// ~1.0 and full overlap-attack survival for Casper only.
func AblationAdversary(w *World) Table {
	t := Table{
		ID:    "A6",
		Title: "adversary analysis (best-guess, k-audit, overlap attack)",
		Columns: []string{
			"scheme", "norm guess err", "pinpointed %", "k-violations", "overlap survival",
		},
	}
	samples := w.P.QuerySamples * 2
	if samples > w.P.Users {
		samples = w.P.Users
	}
	eps := w.Universe.Width() * 1e-4

	// Casper.
	anon := w.BuildBasic(w.P.Levels, w.P.Users, w.Profiles)
	var cloaks []geom.Rect
	var truths []geom.Point
	var worstViol int
	for i := 0; i < samples; i++ {
		uid := anonymizer.UserID(w.rng.Intn(w.P.Users))
		cr, err := anon.Cloak(uid)
		if err != nil {
			continue
		}
		cloaks = append(cloaks, cr.Region)
		truths = append(truths, w.Initial[uid])
	}
	rep, err := privacy.AnalyzeGuess(cloaks, truths, eps)
	if err != nil {
		panic(err)
	}
	audit := privacy.AuditKAnonymity(cloaks, w.Initial[:w.P.Users], 1)
	worstViol = audit.Violations
	// Overlap attack: one slow-moving user publishing repeatedly.
	var seq []geom.Rect
	pos := w.Initial[0]
	for step := 0; step < 15; step++ {
		pos = geom.Pt(pos.X+w.rng.Float64()*10-5, pos.Y+w.rng.Float64()*10-5)
		if err := anon.Update(0, pos); err != nil {
			panic(err)
		}
		if cr, err := anon.Cloak(0); err == nil {
			seq = append(seq, cr.Region)
		}
	}
	ov := privacy.RunOverlapAttack(seq)
	t.AddRow("casper-grid",
		f2(rep.NormalizedError),
		f1(100*float64(rep.Pinpointed)/float64(rep.Pairs)),
		fmt.Sprint(worstViol),
		f2(ov.SurvivingFraction))

	// User-centered cloaks (the broken strawman).
	cloaks = cloaks[:0]
	truths = truths[:0]
	side := w.Universe.Width() / 64
	for i := 0; i < samples; i++ {
		p := w.Initial[w.rng.Intn(w.P.Users)]
		cloaks = append(cloaks, geom.R(p.X-side/2, p.Y-side/2, p.X+side/2, p.Y+side/2))
		truths = append(truths, p)
	}
	repC, err := privacy.AnalyzeGuess(cloaks, truths, eps)
	if err != nil {
		panic(err)
	}
	seq = seq[:0]
	pos = w.Initial[0]
	for step := 0; step < 15; step++ {
		ox, oy := (w.rng.Float64()-0.5)*side*0.8, (w.rng.Float64()-0.5)*side*0.8
		seq = append(seq, geom.R(pos.X+ox-side/2, pos.Y+oy-side/2, pos.X+ox+side/2, pos.Y+oy+side/2))
	}
	ovC := privacy.RunOverlapAttack(seq)
	t.AddRow("user-centered",
		f2(repC.NormalizedError),
		f1(100*float64(repC.Pinpointed)/float64(repC.Pairs)),
		"-",
		f2(ovC.SurvivingFraction))

	// CliqueCloak MBRs.
	n := w.P.Users
	if n > 3000 {
		n = 3000
	}
	clique := baselines.NewCliqueCloak(w.Universe.Width() / 10)
	for i := 0; i < n; i++ {
		clique.Submit(baselines.Request{UID: int64(i), Pos: w.Initial[i], K: 5})
	}
	cloaks = cloaks[:0]
	truths = truths[:0]
	for i := 0; i < n && len(cloaks) < samples; i++ {
		mbr, members, err := clique.Cloak(int64(i))
		if err != nil {
			continue
		}
		for _, m := range members {
			cloaks = append(cloaks, mbr)
			truths = append(truths, w.Initial[m])
		}
	}
	repM, err := privacy.AnalyzeGuess(cloaks, truths, eps)
	if err != nil {
		panic(err)
	}
	t.AddRow("cliquecloak-mbr",
		f2(repM.NormalizedError),
		f1(100*float64(repM.Pinpointed)/float64(repM.Pairs)),
		"-",
		"-")
	return t
}

// AblationTemporal contrasts the two currencies anonymity can be paid
// in: Gruteser-Grunwald temporal cloaking delays the answer until k
// distinct users have visited the requester's cell, while Casper
// enlarges the region and answers immediately. The table reports the
// delay distribution of temporal cloaking against the area overhead of
// Casper for the same k, over the same moving-object workload.
func AblationTemporal(w *World) Table {
	t := Table{
		ID:    "A7",
		Title: "temporal cloaking vs casper (latency vs area, same k)",
		Columns: []string{
			"k", "temporal mean delay s", "temporal unreleased %", "casper area (leaf cells)", "casper delay s",
		},
	}
	// Re-simulate a short movement window so the temporal cloaker has
	// a visit stream (the shared World keeps only two snapshots).
	netCfg := roadnet.DefaultHennepinConfig()
	netCfg.Extent = w.P.UniverseSide
	net := roadnet.SyntheticHennepin(w.P.Seed, netCfg)
	nUsers := w.P.Users
	if nUsers > 10000 {
		nUsers = 10000
	}
	gen := mobgen.New(net, mobgen.DefaultConfig(nUsers, w.P.Seed+1))
	const (
		steps   = 30
		stepSec = 30.0
	)
	epoch := time.Unix(0, 0)
	type snapshot []mobgen.Update
	snaps := make([]snapshot, 0, steps+1)
	snaps = append(snaps, gen.Positions())
	for s := 0; s < steps; s++ {
		snaps = append(snaps, gen.Step(stepSec))
	}

	leaf := w.LeafCellArea()
	requestStep := 5
	samples := w.P.QuerySamples
	if samples > nUsers {
		samples = nUsers
	}
	for _, k := range []int{5, 10, 20} {
		tc := baselines.NewTemporalCloak(w.Universe, 1<<uint(w.P.Levels-1), k, time.Hour)
		for s, snap := range snaps {
			at := epoch.Add(time.Duration(float64(s) * stepSec * float64(time.Second)))
			for _, u := range snap {
				tc.Observe(u.ID, u.Pos, at)
			}
		}
		reqAt := epoch.Add(time.Duration(float64(requestStep) * stepSec * float64(time.Second)))
		var delaySum float64
		released, unreleased := 0, 0
		for i := 0; i < samples; i++ {
			uid := int64(w.rng.Intn(nUsers))
			pos := snaps[requestStep][uid].Pos
			_, release, ok := tc.Request(uid, pos, reqAt)
			if !ok {
				unreleased++
				continue
			}
			released++
			if d := release.Sub(reqAt).Seconds(); d > 0 {
				delaySum += d
			}
		}
		meanDelay := 0.0
		if released > 0 {
			meanDelay = delaySum / float64(released)
		}

		// Casper at the same k: area overhead, zero delay.
		profiles := w.MakeProfiles(nUsers, [2]int{k, k}, [2]float64{0, 0})
		anon := w.BuildBasic(w.P.Levels, nUsers, profiles)
		var areaSum float64
		n := 0
		for i := 0; i < samples; i++ {
			uid := anonymizer.UserID(w.rng.Intn(nUsers))
			cr, err := anon.Cloak(uid)
			if err != nil {
				continue
			}
			areaSum += cr.Region.Area() / leaf
			n++
		}
		t.AddRow(fmt.Sprint(k),
			f1(meanDelay),
			f1(100*float64(unreleased)/float64(samples)),
			f1(areaSum/float64(max(n, 1))),
			"0.0")
	}
	return t
}

// All runs every experiment in DESIGN.md order.
func All(p Params) []Table {
	w := NewWorld(p)
	return []Table{
		Fig10a(w), Fig10b(w), Fig10c(w), Fig10d(w),
		Fig11a(w), Fig11b(w),
		Fig12a(w), Fig12b(w),
		Fig13a(w), Fig13b(w),
		Fig14a(w), Fig14b(w),
		Fig15a(w), Fig15b(w),
		Fig16a(w), Fig16b(w),
		Fig17(w, false), Fig17(w, true),
		FigX1(w), FigX2(w), FigX3(w),
		AblationNeighborMerge(w), AblationNaiveExtremes(w), AblationCloakers(w),
		AblationIndexes(w), AblationWAL(w), AblationAdversary(w), AblationTemporal(w),
	}
}
