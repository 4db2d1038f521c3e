package continuous

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"casper/internal/geom"
	"casper/internal/mobgen"
	"casper/internal/privacyqp"
	"casper/internal/roadnet"
	"casper/internal/rtree"
)

func traceNet(seed int64) *roadnet.Graph {
	return roadnet.SyntheticHennepin(seed, roadnet.SyntheticHennepinConfig{
		Extent: 10000, GridN: 8, ArterialEvery: 4, Jitter: 0.2,
	})
}

func cloakAround(p geom.Point, half float64) geom.Rect {
	return geom.R(p.X-half, p.Y-half, p.X+half, p.Y+half).ClipTo(world)
}

// TestMobgenTraceEquivalence is the property test for the indexed,
// safe-region monitor: over a seeded mobgen trace interleaving
// registrations, deregistrations, object churn, and asker movement,
// every maintained answer must (a) exactly equal a fresh snapshot
// query at the query's evaluation cloak, and (b) stay inclusive — the
// refined exact answer at any position inside the asker's CURRENT
// cloak is always among the maintained candidates. (b) is the
// property the safe region is allowed to trade (a)'s freshness for;
// both are checked on every tick. The trace runs against the exact
// and inflated configurations; the linear-legacy case reruns the exact
// one with range counts checked against an O(N) scan of the live
// objects instead of a snapshot query, so the indexed join is also
// differentially tested against a linear scan.
func TestMobgenTraceEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cfg          Config
		linearCounts bool
	}{
		{"indexed-exact", Config{Universe: world}, false},
		{"indexed-inflated", Config{Universe: world, SafeRegionFrac: 0.7}, false},
		{"linear-legacy", Config{Universe: world}, true},
	} {
		t.Run(tc.name, func(t *testing.T) { runTraceEquivalence(t, tc.cfg, tc.linearCounts) })
	}
}

func runTraceEquivalence(t *testing.T, cfg Config, linearCounts bool) {
	rng := rand.New(rand.NewSource(42))
	m := NewMonitor(cfg)
	gen := mobgen.New(traceNet(3), mobgen.DefaultConfig(80, 9))

	// Fixed public targets (points, like the paper's gas stations).
	var pub []rtree.Item
	for i, p := range mobgen.UniformPoints(world, 50, 7) {
		pub = append(pub, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(1000 + i)})
	}
	m.SetPublic(pub)

	// Seed the private table from the generator's initial positions;
	// mirror is the test's own ground-truth copy of the shadow table.
	mirror := map[int64]geom.Rect{}
	push := func(us []mobgen.Update) {
		batch := make([]PrivateUpdate, 0, len(us))
		for _, u := range us {
			r := cloakAround(u.Pos, 120)
			batch = append(batch, PrivateUpdate{ID: u.ID, Region: r})
			mirror[u.ID] = r
		}
		if err := m.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
	}
	push(gen.Positions())

	freshPriv := func() *rtree.Tree {
		items := make([]rtree.Item, 0, len(mirror))
		for id, r := range mirror {
			items = append(items, rtree.Item{Rect: r, ID: id})
		}
		return rtree.BulkLoad(items)
	}

	type watch struct {
		id       QueryID
		kind     queryKind
		dataKind privacyqp.DataKind
		asker    int64 // object whose cloak drives the query
		cloak    geom.Rect
		radius   float64
		exclude  int64
	}
	type rangeReg struct {
		id     QueryID
		rect   geom.Rect
		policy privacyqp.CountPolicy
	}
	var watches []watch
	var ranges []rangeReg

	opt := privacyqp.DefaultOptions()
	addWatch := func(asker mobgen.Update) {
		c := cloakAround(asker.Pos, 150)
		switch rng.Intn(3) {
		case 0:
			id, _, err := m.RegisterNN(c, privacyqp.PublicData, opt, -1)
			if err != nil {
				t.Fatal(err)
			}
			watches = append(watches, watch{id: id, kind: qNN, dataKind: privacyqp.PublicData, asker: asker.ID, cloak: c, exclude: -1})
		case 1:
			id, _, err := m.RegisterNN(c, privacyqp.PrivateData, opt, asker.ID)
			if err != nil {
				t.Fatal(err)
			}
			watches = append(watches, watch{id: id, kind: qNN, dataKind: privacyqp.PrivateData, asker: asker.ID, cloak: c, exclude: asker.ID})
		default:
			rad := 400 + rng.Float64()*800
			id, _, err := m.RegisterRadius(c, rad, privacyqp.PrivateData, asker.ID)
			if err != nil {
				t.Fatal(err)
			}
			watches = append(watches, watch{id: id, kind: qRadius, dataKind: privacyqp.PrivateData, asker: asker.ID, cloak: c, radius: rad, exclude: asker.ID})
		}
	}

	check := func(tick int) {
		t.Helper()
		db := freshPriv()
		for _, rr := range ranges {
			got, ok := m.Count(rr.id)
			if !ok {
				t.Fatalf("tick %d: range query %d vanished", tick, rr.id)
			}
			var want float64
			if linearCounts {
				for _, r := range mirror {
					want += contribution(r, rr.rect, rr.policy)
				}
			} else {
				var err error
				if want, err = privacyqp.PublicRangeCount(db, rr.rect, rr.policy); err != nil {
					t.Fatal(err)
				}
			}
			if d := got - want; d > 1e-6 || d < -1e-6 {
				t.Fatalf("tick %d: range %d count %v, snapshot %v", tick, rr.id, got, want)
			}
		}
		for _, w := range watches {
			got, ok := m.Candidates(w.id)
			if !ok {
				t.Fatalf("tick %d: watch %d vanished", tick, w.id)
			}
			gotIDs := map[int64]bool{}
			for _, c := range got {
				gotIDs[c.ID] = true
			}
			// (a) exact equality with a fresh snapshot at the cloak the
			// monitor actually evaluated (inflated under SafeRegionFrac>0),
			// with the asker hidden exactly as a one-shot buddy query
			// hides it (privacyqp.Without, as in server.NNPrivate).
			q := m.queries[w.id]
			snapdb := privacyqp.Without(db, w.exclude)
			if w.dataKind == privacyqp.PublicData {
				snapdb = rtree.BulkLoad(pub)
			}
			all := snapdb.All()
			if q.evalCloak.IsValid() && !q.evalCloak.IsPoint() || len(got) > 0 {
				var wantCands []rtree.Item
				var err error
				if w.kind == qNN {
					var res privacyqp.Result
					res, err = privacyqp.PrivateNN(snapdb, q.evalCloak, w.dataKind, opt)
					wantCands = res.Candidates
				} else {
					var res privacyqp.Result
					res, err = privacyqp.PrivateRange(snapdb, q.evalCloak, w.radius, w.dataKind)
					wantCands = res.Candidates
				}
				if err != nil {
					t.Fatalf("tick %d: snapshot at evalCloak: %v", tick, err)
				}
				wantIDs := map[int64]bool{}
				for _, c := range wantCands {
					wantIDs[c.ID] = true
				}
				if !sameIDSet(gotIDs, wantIDs) {
					t.Fatalf("tick %d: watch %d (kind %d, data %v): maintained %d candidates != snapshot %d at evalCloak %v",
						tick, w.id, w.kind, w.dataKind, len(gotIDs), len(wantIDs), q.evalCloak)
				}
			}
			// (b) inclusiveness for the asker's CURRENT cloak: sample
			// positions inside it and require the refined exact answer
			// to come from the maintained list.
			samples := []geom.Point{w.cloak.Center(), w.cloak.Min, w.cloak.Max,
				geom.Pt(w.cloak.Min.X, w.cloak.Max.Y), geom.Pt(w.cloak.Max.X, w.cloak.Min.Y)}
			for _, p := range samples {
				if w.kind == qNN {
					// Inclusiveness oracle per Theorems 1/3: the exact
					// NN — for private targets, under a sampled concrete
					// position inside each target's cloak — must be
					// among the maintained candidates. all has the
					// asker hidden, so this is the nearest OTHER user.
					best, bd := int64(-1), 0.0
					for _, it := range all {
						truePos := it.Rect.Min
						if w.dataKind == privacyqp.PrivateData {
							truePos = geom.Pt(
								it.Rect.Min.X+rng.Float64()*it.Rect.Width(),
								it.Rect.Min.Y+rng.Float64()*it.Rect.Height(),
							)
						}
						if d := p.Dist(truePos); best < 0 || d < bd {
							best, bd = it.ID, d
						}
					}
					if best < 0 {
						continue
					}
					if !gotIDs[best] {
						t.Fatalf("tick %d: watch %d: true NN %d at %v missing from maintained candidates (safe region broke inclusiveness)",
							tick, w.id, best, p)
					}
				} else {
					for _, it := range privacyqp.RefineRange(p, all, w.radius, w.dataKind) {
						if !gotIDs[it.ID] {
							t.Fatalf("tick %d: watch %d: in-range target %d missing from maintained candidates", tick, w.id, it.ID)
						}
					}
				}
			}
		}
	}

	for tick := 0; tick < 40; tick++ {
		// Interleave registrations/deregistrations with movement.
		switch {
		case tick < 4 || rng.Float64() < 0.25:
			us := gen.Positions()
			addWatch(us[rng.Intn(len(us))])
		case len(watches) > 2 && rng.Float64() < 0.15:
			i := rng.Intn(len(watches))
			if !m.Unregister(watches[i].id) {
				t.Fatalf("unregister %d failed", watches[i].id)
			}
			watches = append(watches[:i], watches[i+1:]...)
		case rng.Float64() < 0.3:
			r := randRegion(rng, 2500)
			policy := []privacyqp.CountPolicy{
				privacyqp.CountAnyOverlap, privacyqp.CountCenterIn, privacyqp.CountFractional,
			}[rng.Intn(3)]
			id, _, err := m.RegisterRangeCount(r, policy)
			if err != nil {
				t.Fatal(err)
			}
			ranges = append(ranges, rangeReg{id, r, policy})
		}
		// Object churn: occasionally remove and later re-add an object.
		if rng.Float64() < 0.2 && len(mirror) > 10 {
			for id := range mirror {
				if !m.RemovePrivate(id) {
					t.Fatalf("remove %d failed", id)
				}
				delete(mirror, id)
				break
			}
		}
		// Advance the world and push the batch.
		push(gen.StepInto(5, nil))
		// Move the asker cloaks.
		pos := map[int64]geom.Point{}
		for _, u := range gen.Positions() {
			pos[u.ID] = u.Pos
		}
		for i := range watches {
			w := &watches[i]
			p, ok := pos[w.asker]
			if !ok {
				continue
			}
			w.cloak = cloakAround(p, 150)
			var err error
			if w.kind == qNN {
				err = m.UpdateNNCloak(w.id, w.cloak)
			} else {
				err = m.UpdateRadiusCloak(w.id, w.cloak)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		check(tick)
	}
	if m.Updates() == 0 || m.Evaluations() == 0 {
		t.Fatalf("trace exercised nothing: updates %d evals %d", m.Updates(), m.Evaluations())
	}
	t.Logf("cfg %+v: updates %d evaluations %d safe-hits %d", cfg, m.Updates(), m.Evaluations(), m.SafeRegionHits())
}

// TestSafeRegionCutsNNReevaluations drives a mobgen moving-asker
// trace through a safe-region monitor and requires it to cut NN
// re-evaluations by at least half against re-evaluating on every
// cloak change (what a monitor without safe regions does) — the
// acceptance bar for the Hashem-style safe regions.
func TestSafeRegionCutsNNReevaluations(t *testing.T) {
	gen := mobgen.New(traceNet(5), mobgen.DefaultConfig(8, 11))
	var cloaks [][]geom.Rect // per tick, per asker
	for tick := 0; tick < 300; tick++ {
		us := gen.Step(1)
		row := make([]geom.Rect, len(us))
		for i, u := range us {
			row[i] = cloakAround(u.Pos, 150)
		}
		cloaks = append(cloaks, row)
	}
	var changes int64
	for tick := 1; tick < len(cloaks); tick++ {
		for i, c := range cloaks[tick] {
			if c != cloaks[tick-1][i] {
				changes++
			}
		}
	}
	var pub []rtree.Item
	for i, p := range mobgen.UniformPoints(world, 200, 13) {
		pub = append(pub, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)})
	}
	m := NewMonitor(Config{Universe: world, SafeRegionFrac: 1.0})
	m.SetPublic(pub)
	ids := make([]QueryID, len(cloaks[0]))
	for i, c := range cloaks[0] {
		id, _, err := m.RegisterNN(c, privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	evals0 := m.Evaluations()
	for _, row := range cloaks[1:] {
		for i, c := range row {
			if err := m.UpdateNNCloak(ids[i], c); err != nil {
				t.Fatal(err)
			}
		}
	}
	safeEvals, safeHits := m.Evaluations()-evals0, m.SafeRegionHits()
	t.Logf("cloak changes %d, safe-region re-evaluations %d (hits %d)", changes, safeEvals, safeHits)
	if safeHits == 0 {
		t.Fatal("safe regions absorbed no cloak updates")
	}
	if 2*safeEvals > changes {
		t.Fatalf("safe regions cut re-evaluations only %d -> %d (< 50%%)", changes, safeEvals)
	}
}

// TestApplyUpdatesBatch pins the batch entry point's semantics.
func TestApplyUpdatesBatch(t *testing.T) {
	m := New(nil)
	qid, _, err := m.RegisterRangeCount(geom.R(0, 0, 1000, 1000), privacyqp.CountAnyOverlap)
	if err != nil {
		t.Fatal(err)
	}

	// Duplicate IDs collapse to the last occurrence.
	err = m.ApplyUpdates([]PrivateUpdate{
		{ID: 1, Region: geom.R(5000, 5000, 5100, 5100)},
		{ID: 2, Region: geom.R(100, 100, 200, 200)},
		{ID: 1, Region: geom.R(400, 400, 500, 500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Count(qid); n != 2 {
		t.Fatalf("count = %v, want 2 (both objects inside after dedup)", n)
	}

	// An invalid region rejects the whole batch atomically.
	err = m.ApplyUpdates([]PrivateUpdate{
		{ID: 3, Region: geom.R(0, 0, 100, 100)},
		{ID: 4, Region: geom.Rect{Min: geom.Pt(10, 10), Max: geom.Pt(0, 0)}},
	})
	if err == nil {
		t.Fatal("invalid region accepted")
	}
	if n, _ := m.Count(qid); n != 2 {
		t.Fatalf("count = %v after rejected batch, want 2 (no partial application)", n)
	}

	// Empty batch is a no-op.
	if err := m.ApplyUpdates(nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStripeStress stresses the single monitor lock under
// -race: one updater per quadrant, an updater whose regions cross the
// center, registration churn, asker movement, and readers all run at
// once. The final counts must equal a fresh snapshot.
func TestConcurrentStripeStress(t *testing.T) {
	m := NewMonitor(Config{Universe: world, SafeRegionFrac: 0.5, Buffer: 256, Notify: func(Event) {}})
	defer m.Close()
	var pub []rtree.Item
	for i, p := range mobgen.UniformPoints(world, 100, 3) {
		pub = append(pub, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)})
	}
	m.SetPublic(pub)

	const rounds = 400
	var wg sync.WaitGroup
	// Four quadrant updaters: objects confined to one quadrant each.
	quadrants := []geom.Rect{
		geom.R(100, 100, 4800, 4800), geom.R(5200, 100, 9900, 4800),
		geom.R(100, 5200, 4800, 9900), geom.R(5200, 5200, 9900, 9900),
	}
	for qi, quad := range quadrants {
		wg.Add(1)
		go func(qi int, quad geom.Rect) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(qi)))
			base := int64(qi * 1000)
			for r := 0; r < rounds; r++ {
				batch := make([]PrivateUpdate, 8)
				for i := range batch {
					x := quad.Min.X + rng.Float64()*(quad.Width()-200)
					y := quad.Min.Y + rng.Float64()*(quad.Height()-200)
					batch[i] = PrivateUpdate{ID: base + int64(rng.Intn(100)), Region: geom.R(x, y, x+150, y+150)}
				}
				if err := m.ApplyUpdates(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(qi, quad)
	}
	// Center updater: regions straddling the center.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for r := 0; r < rounds; r++ {
			d := 100 + rng.Float64()*400
			reg := geom.R(5000-d, 5000-d, 5000+d, 5000+d)
			if err := upsert(m, 9000+int64(rng.Intn(50)), reg); err != nil {
				t.Error(err)
				return
			}
			if rng.Float64() < 0.1 {
				m.RemovePrivate(9000 + int64(rng.Intn(50)))
			}
		}
	}()
	// Registration churn + asker movement.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		var ids []QueryID
		for r := 0; r < rounds; r++ {
			if len(ids) < 20 || rng.Float64() < 0.4 {
				c := randRegion(rng, 600)
				var id QueryID
				var err error
				switch rng.Intn(3) {
				case 0:
					id, _, err = m.RegisterNN(c, privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
				case 1:
					id, _, err = m.RegisterRadius(c, 500, privacyqp.PrivateData, -1)
				default:
					id, _, err = m.RegisterRangeCount(c, privacyqp.CountAnyOverlap)
				}
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, id)
			} else if rng.Float64() < 0.2 {
				i := rng.Intn(len(ids))
				m.Unregister(ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			} else {
				i := rng.Intn(len(ids))
				c := randRegion(rng, 600)
				// Wrong-kind updates error; that's fine, just exercise.
				_ = m.UpdateNNCloak(ids[i], c)
				_ = m.UpdateRadiusCloak(ids[i], c)
			}
		}
		for _, id := range ids {
			m.Unregister(id)
		}
	}()
	// Readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*4; r++ {
			m.Count(QueryID(r%64) + 1)
			m.Candidates(QueryID(r%64) + 1)
			m.QueryCounts()
		}
	}()
	wg.Wait()

	// Final consistency: register a fresh range query per quadrant and
	// compare against a snapshot of the shadow table.
	db := rtree.BulkLoad(m.priv.All())
	for i, quad := range quadrants {
		id, got, err := m.RegisterRangeCount(quad, privacyqp.CountAnyOverlap)
		if err != nil {
			t.Fatal(err)
		}
		want, err := privacyqp.PublicRangeCount(db, quad, privacyqp.CountAnyOverlap)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("quadrant %d: fresh registration count %v, snapshot %v", i, got, want)
		}
		m.Unregister(id)
	}
	nr, nn, nrad := m.QueryCounts()
	if nr != 0 || nn != 0 || nrad != 0 {
		t.Fatalf("query counts not zero after teardown: %d/%d/%d", nr, nn, nrad)
	}
}

// TestQueryCounts pins the per-kind gauges' source of truth.
func TestQueryCounts(t *testing.T) {
	m := New(nil)
	if err := upsert(m, 1, geom.R(100, 100, 200, 200)); err != nil {
		t.Fatal(err)
	}
	m.SetPublic([]rtree.Item{{Rect: geom.R(50, 50, 50, 50), ID: 9}})
	rid, _, err := m.RegisterRangeCount(geom.R(0, 0, 1000, 1000), privacyqp.CountAnyOverlap)
	if err != nil {
		t.Fatal(err)
	}
	nid, _, err := m.RegisterNN(geom.R(0, 0, 300, 300), privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RegisterRadius(geom.R(0, 0, 300, 300), 500, privacyqp.PrivateData, -1); err != nil {
		t.Fatal(err)
	}
	if nr, nn, nrad := m.QueryCounts(); nr != 1 || nn != 1 || nrad != 1 {
		t.Fatalf("QueryCounts = %d/%d/%d, want 1/1/1", nr, nn, nrad)
	}
	m.Unregister(rid)
	m.Unregister(nid)
	if nr, nn, nrad := m.QueryCounts(); nr != 0 || nn != 0 || nrad != 1 {
		t.Fatalf("QueryCounts after unregister = %d/%d/%d, want 0/0/1", nr, nn, nrad)
	}
}

// TestStripeAssignment pins range-count matching for regions at every
// position relative to the universe's center lines: confined to a
// quadrant, touching a split line, straddling the center, and outside
// the universe. Each case registers a range count over the region and
// an object overlapping it; the count is 1, then 0 once the object
// moves away.
func TestStripeAssignment(t *testing.T) {
	cases := []struct {
		name string
		r    geom.Rect
	}{
		{"quadrant-sw", geom.R(0, 0, 4999, 4999)},
		{"quadrant-se", geom.R(5000, 0, 9000, 4999)},
		{"quadrant-nw", geom.R(0, 5000, 4999, 9000)},
		{"quadrant-ne", geom.R(5000, 5000, 9000, 9000)},
		{"straddles-center", geom.R(4000, 4000, 6000, 6000)},
		{"touches-x-split", geom.R(4000, 100, 5000, 200)},
		{"touches-y-split", geom.R(100, 4999, 200, 5000)},
		{"outside-universe", geom.R(-50, -50, -10, -10)},
	}
	away := geom.R(20000, 20000, 20010, 20010)
	for _, c := range cases {
		m := NewMonitor(Config{Universe: world})
		id, _, err := m.RegisterRangeCount(c.r, privacyqp.CountAnyOverlap)
		if err != nil {
			t.Fatal(err)
		}
		if err := upsert(m, 1, c.r); err != nil {
			t.Fatal(err)
		}
		if n, _ := m.Count(id); n != 1 {
			t.Errorf("%s: count %v with an overlapping object, want 1", c.name, n)
		}
		if err := upsert(m, 1, away); err != nil {
			t.Fatal(err)
		}
		if n, _ := m.Count(id); n != 0 {
			t.Errorf("%s: count %v after the object moved away, want 0", c.name, n)
		}
	}
}

// TestLinearScanMatchesIndexed differentially tests the spatial-join
// index against references the test computes itself on a random op
// stream: every range count against a linear scan of the live objects,
// every candidate list against a fresh snapshot query at the query's
// evaluation cloak. SafeRegionFrac 0 evaluates at the cloak itself.
func TestLinearScanMatchesIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := NewMonitor(Config{Universe: world})
	var pub []rtree.Item
	for i, p := range mobgen.UniformPoints(world, 40, 5) {
		pub = append(pub, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)})
	}
	m.SetPublic(pub)
	type reg struct {
		id     QueryID
		kind   queryKind
		rect   geom.Rect // range queries
		radius float64   // radius queries
	}
	var regs []reg
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			r := randRegion(rng, 3000)
			id, _, err := m.RegisterRangeCount(r, privacyqp.CountFractional)
			if err != nil {
				t.Fatal(err)
			}
			regs = append(regs, reg{id: id, kind: qRange, rect: r})
		case 1:
			id, _, err := m.RegisterNN(randRegion(rng, 400), privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
			if err != nil {
				t.Fatal(err)
			}
			regs = append(regs, reg{id: id, kind: qNN})
		default:
			id, _, err := m.RegisterRadius(randRegion(rng, 400), 600, privacyqp.PrivateData, -1)
			if err != nil {
				t.Fatal(err)
			}
			regs = append(regs, reg{id: id, kind: qRadius, radius: 600})
		}
	}
	mirror := map[int64]geom.Rect{}
	for i := 0; i < 500; i++ {
		switch {
		case rng.Float64() < 0.7:
			pid, r := int64(rng.Intn(60)), randRegion(rng, 250)
			if err := upsert(m, pid, r); err != nil {
				t.Fatal(err)
			}
			mirror[pid] = r
		case rng.Float64() < 0.5:
			pid := int64(rng.Intn(60))
			if _, live := mirror[pid]; m.RemovePrivate(pid) != live {
				t.Fatalf("op %d: RemovePrivate(%d) disagrees with the mirror (live %v)", i, pid, live)
			}
			delete(mirror, pid)
		default:
			id := regs[rng.Intn(len(regs))].id
			_ = m.UpdateNNCloak(id, randRegion(rng, 400))
			_ = m.UpdateRadiusCloak(id, randRegion(rng, 400))
		}
	}

	privItems := make([]rtree.Item, 0, len(mirror))
	for id, r := range mirror {
		privItems = append(privItems, rtree.Item{Rect: r, ID: id})
	}
	pubDB, privDB := rtree.BulkLoad(pub), rtree.BulkLoad(privItems)
	for _, rg := range regs {
		if rg.kind == qRange {
			got, ok := m.Count(rg.id)
			if !ok {
				t.Fatalf("range query %d vanished", rg.id)
			}
			want := 0.0
			for _, r := range mirror {
				want += contribution(r, rg.rect, privacyqp.CountFractional)
			}
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("range query %d: indexed count %v, linear scan %v", rg.id, got, want)
			}
			continue
		}
		got, ok := m.Candidates(rg.id)
		if !ok {
			t.Fatalf("query %d vanished", rg.id)
		}
		ec := m.queries[rg.id].evalCloak
		var res privacyqp.Result
		var err error
		if rg.kind == qNN {
			res, err = privacyqp.PrivateNN(pubDB, ec, privacyqp.PublicData, privacyqp.DefaultOptions())
		} else {
			res, err = privacyqp.PrivateRange(privDB, ec, rg.radius, privacyqp.PrivateData)
		}
		if err != nil {
			t.Fatalf("query %d: snapshot at evalCloak %v: %v", rg.id, ec, err)
		}
		gotIDs, wantIDs := map[int64]bool{}, map[int64]bool{}
		for _, c := range got {
			gotIDs[c.ID] = true
		}
		for _, c := range res.Candidates {
			wantIDs[c.ID] = true
		}
		if !sameIDSet(gotIDs, wantIDs) {
			t.Fatalf("query %d (kind %d): maintained %d candidates != snapshot %d at evalCloak %v",
				rg.id, rg.kind, len(gotIDs), len(wantIDs), ec)
		}
	}
}
