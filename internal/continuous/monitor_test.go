package continuous

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// TestMobgenTraceEquivalence is the property test for the indexed
// monitor: over a seeded mobgen trace interleaving registrations,
// deregistrations, object churn, and asker movement, every maintained
// answer must (a) exactly equal a fresh snapshot query at the query's
// evaluation cloak, and (b) stay inclusive — the refined exact answer
// at any position inside the asker's CURRENT cloak is always among the
// maintained candidates. (b) is what keeping the list for a cloak
// inside the evaluated one relies on; both are checked on every tick.
// The linear-legacy case reruns the trace with range counts checked
// against an O(N) scan of the live objects instead of a snapshot
// query, so the indexed join is also differentially tested against a
// linear scan. The grid-snapped case
// snaps every cloak to pyramid cells and every public target to cell
// vertices, as a grid anonymizer does: cloak vertices are then often
// equidistant from several targets, so the answer is only exact if
// ties break the same way in the monitor's tree and the snapshot's.
func TestMobgenTraceEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name         string
		linearCounts bool
		grid         float64
	}{
		{"indexed-exact", false, 0},
		{"linear-legacy", true, 0},
		{"grid-snapped", false, world.Width() / 16},
	} {
		t.Run(tc.name, func(t *testing.T) { runTraceEquivalence(t, tc.linearCounts, tc.grid) })
	}
}

// snapOut grows r to the cells of a grid with side g (g == 0 leaves it
// as is).
func snapOut(r geom.Rect, g float64) geom.Rect {
	if g == 0 {
		return r
	}
	return geom.R(math.Floor(r.Min.X/g)*g, math.Floor(r.Min.Y/g)*g,
		math.Ceil(r.Max.X/g)*g, math.Ceil(r.Max.Y/g)*g).ClipTo(world)
}

func runTraceEquivalence(t *testing.T, linearCounts bool, grid float64) {
	rng := rand.New(rand.NewSource(42))
	m := NewMonitor(Config{Universe: world})
	gen := mobgen.New(traceNet(3), mobgen.DefaultConfig(80, 9))

	// Fixed public targets (points, like the paper's gas stations).
	var pub []rtree.Item
	for i, p := range mobgen.UniformPoints(world, 50, 7) {
		if grid > 0 {
			p = geom.Pt(math.Round(p.X/grid)*grid, math.Round(p.Y/grid)*grid)
		}
		pub = append(pub, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(1000 + i)})
	}
	m.SetPublic(pub)

	// Seed the private table from the generator's initial positions;
	// mirror is the test's own ground-truth copy of the shadow table.
	mirror := map[int64]geom.Rect{}
	push := func(us []mobgen.Update) {
		batch := make([]PrivateUpdate, 0, len(us))
		for _, u := range us {
			r := snapOut(cloakAround(u.Pos, 120), grid)
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
		c := snapOut(cloakAround(asker.Pos, 150), grid)
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
					want += rr.policy.Contribution(r, rr.rect)
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
			// monitor last evaluated, with the asker hidden exactly as a one-shot buddy query
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
					res, err = freshNN(snapdb, q.evalCloak, w.dataKind, opt)
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
						t.Fatalf("tick %d: watch %d: true NN %d at %v missing from maintained candidates (a kept list broke inclusiveness)",
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
			w.cloak = snapOut(cloakAround(p, 150), grid)
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
	t.Logf("updates %d evaluations %d safe-hits %d", m.Updates(), m.Evaluations(), m.SafeRegionHits())
}

// TestApplyUpdatesBatch pins the batch entry point's semantics.
func TestApplyUpdatesBatch(t *testing.T) {
	m := NewMonitor(Config{})
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
	m := NewMonitor(Config{Universe: world, Buffer: 256, Notify: func(Event) {}})
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
	m := NewMonitor(Config{})
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
// evaluation cloak.
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
				want += privacyqp.CountFractional.Contribution(r, rg.rect)
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
			res, err = freshNN(pubDB, ec, privacyqp.PublicData, privacyqp.DefaultOptions())
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

// TestDeltaEventContract pins the notification contract of a batch
// under deltas: one CandidatesChanged at most per query and ingestion,
// and only when the candidate ID set differs from the set before the
// ingestion — also when a delta changed the list and a later op of the
// same batch forced a re-run.
func TestDeltaEventContract(t *testing.T) {
	// One private NN query, one filter (the nearest to the cloak's
	// center): pid 5 at the center is the filter, pid 1 a candidate
	// inside A_EXT = C expanded by ~8.49 on every side.
	cloak := geom.R(0, 0, 10, 10)
	filter, cand := geom.R(4, 4, 6, 6), geom.R(15, 15, 16, 16)
	setup := func(t *testing.T) (*Monitor, QueryID, *[]Event) {
		t.Helper()
		var events []Event
		m := NewMonitor(Config{Notify: func(e Event) { events = append(events, e) }})
		if err := m.ApplyUpdates([]PrivateUpdate{{ID: 5, Region: filter}, {ID: 1, Region: cand}}); err != nil {
			t.Fatal(err)
		}
		id, got, err := m.RegisterNN(cloak, privacyqp.PrivateData, privacyqp.Options{Filters: 1}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDSet(idsOf(got), map[int64]bool{1: true, 5: true}) {
			t.Fatalf("initial candidates %v, want pids 1 and 5", got)
		}
		return m, id, &events
	}
	far := geom.R(30, 30, 31, 31) // outside A_EXT: the delta drops pid 1
	// resync folds the events into the registration answer and requires
	// the result to equal the maintained list.
	resync := func(t *testing.T, m *Monitor, id QueryID, events []Event) {
		t.Helper()
		known := map[int64]bool{1: true, 5: true}
		for _, e := range events {
			if err := applyDelta(known, e); err != nil {
				t.Fatal(err)
			}
		}
		if got, _ := m.Candidates(id); !sameIDSet(idsOf(got), known) {
			t.Fatalf("events fold to %v, the maintained list is %v", known, got)
		}
	}

	t.Run("rerun-restores", func(t *testing.T) {
		m, id, events := setup(t)
		evals := m.Evaluations()
		// pid 1 leaves A_EXT (delta), then the filter grows so that the
		// re-run's A_EXT reaches pid 1 again: same set, no event.
		if err := m.ApplyUpdates([]PrivateUpdate{{ID: 1, Region: far}, {ID: 5, Region: geom.R(5, 5, 22, 22)}}); err != nil {
			t.Fatal(err)
		}
		if m.Evaluations() != evals+1 {
			t.Fatalf("%d evaluations, want the filter's one re-run", m.Evaluations()-evals)
		}
		if len(*events) != 0 {
			t.Fatalf("events %+v for a batch that restored the candidate set", *events)
		}
		got, _ := m.Candidates(id)
		if !sameIDSet(idsOf(got), map[int64]bool{1: true, 5: true}) {
			t.Fatalf("candidates %v, want pids 1 and 5", got)
		}
		resync(t, m, id, *events)
	})
	t.Run("rerun-keeps-change", func(t *testing.T) {
		m, id, events := setup(t)
		if err := m.ApplyUpdates([]PrivateUpdate{{ID: 1, Region: far}, {ID: 5, Region: geom.R(4, 4, 7, 7)}}); err != nil {
			t.Fatal(err)
		}
		if len(*events) != 1 || (*events)[0].Query != id {
			t.Fatalf("events %+v, want exactly one", *events)
		}
		if e := (*events)[0]; !slices.Equal(e.Dropped, []int64{1}) || len(e.Added) != 0 {
			t.Fatalf("event adds %v and drops %v, want pid 1 dropped alone", e.Added, e.Dropped)
		}
		got, _ := m.Candidates(id)
		if !sameIDSet(idsOf(got), map[int64]bool{5: true}) {
			t.Fatalf("candidates %v, want pid 5 alone", got)
		}
		resync(t, m, id, *events)
	})
	t.Run("move-inside", func(t *testing.T) {
		m, id, events := setup(t)
		evals := m.Evaluations()
		moved := geom.R(14, 14, 15, 15)
		if err := upsert(m, 1, moved); err != nil {
			t.Fatal(err)
		}
		if len(*events) != 0 || m.Evaluations() != evals {
			t.Fatalf("a candidate moving inside A_EXT cost %d events and %d evaluations", len(*events), m.Evaluations()-evals)
		}
		got, _ := m.Candidates(id)
		found := false
		for _, c := range got {
			found = found || c.ID == 1 && c.Rect == moved
		}
		if !found {
			t.Fatalf("candidates %v do not show pid 1 at %v", got, moved)
		}
		resync(t, m, id, *events)
	})
	t.Run("asker-moves", func(t *testing.T) {
		var events []Event
		m := NewMonitor(Config{Notify: func(e Event) { events = append(events, e) }})
		if err := m.ApplyUpdates([]PrivateUpdate{{ID: 5, Region: filter}, {ID: 1, Region: cand}, {ID: 9, Region: cloak}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.RegisterNN(cloak, privacyqp.PrivateData, privacyqp.Options{Filters: 1}, 9); err != nil {
			t.Fatal(err)
		}
		evals := m.Evaluations()
		// The asker's own pseudonym is hidden from her query: moving it,
		// even onto the filter's distance, changes nothing.
		if err := upsert(m, 9, geom.R(5, 5, 5, 5)); err != nil {
			t.Fatal(err)
		}
		m.RemovePrivate(9)
		if len(events) != 0 || m.Evaluations() != evals {
			t.Fatalf("the asker's own moves cost %d events and %d evaluations", len(events), m.Evaluations()-evals)
		}
	})
}

// TestDeltaAllocations requires a delta-only update of a watched
// region to run no evaluation and to allocate nothing proportional to
// the candidate list: a candidate moving around inside A_EXT keeps its
// slot, and only the slot table's item changes.
func TestDeltaAllocations(t *testing.T) {
	m := NewMonitor(Config{})
	rng := rand.New(rand.NewSource(11))
	batch := make([]PrivateUpdate, 0, 2000)
	for i := 0; i < 2000; i++ {
		x, y := rng.Float64()*2000, rng.Float64()*2000
		batch = append(batch, PrivateUpdate{ID: int64(i), Region: geom.R(x, y, x+20, y+20)})
	}
	if err := m.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	cloak := geom.R(900, 900, 1100, 1100)
	nn, nnCands, err := m.RegisterNN(cloak, privacyqp.PrivateData, privacyqp.DefaultOptions(), -1)
	if err != nil {
		t.Fatal(err)
	}
	rad, radCands, err := m.RegisterRadius(cloak, 400, privacyqp.PrivateData, -1)
	if err != nil {
		t.Fatal(err)
	}
	// The mover: a candidate of both whose shifts by 1 and 2 stay
	// admitted by both and beat no filter.
	shift := func(r geom.Rect, dx float64) geom.Rect {
		return geom.R(r.Min.X+dx, r.Min.Y, r.Max.X+dx, r.Max.Y)
	}
	q, qr := m.queries[nn], m.queries[rad]
	var pid int64 = -1
	for _, c := range nnCands {
		ok := true
		for dx := 0.0; dx <= 2; dx++ {
			ch := privacyqp.Change{Old: c, Had: true, New: rtree.Item{Rect: shift(c.Rect, dx), ID: c.ID}, Has: true}
			ok = ok && !q.res.FiltersMayChange(ch, privacyqp.PrivateData) && q.admits(ch.New.Rect) && qr.admits(ch.New.Rect)
		}
		if ok {
			pid = c.ID
			break
		}
	}
	if pid < 0 || len(nnCands) < 100 || len(radCands) < 100 {
		t.Fatalf("setup: mover %d, %d NN and %d radius candidates", pid, len(nnCands), len(radCands))
	}
	base := m.privSlots.rect(pid)
	evals := m.Evaluations()
	step := 0
	move := func() {
		step++
		if err := upsert(m, pid, shift(base, float64(step%3))); err != nil {
			t.Fatal(err)
		}
	}
	move()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const moves = 200
	for i := 0; i < moves; i++ {
		move()
	}
	runtime.ReadMemStats(&after)
	if m.Evaluations() != evals {
		t.Fatalf("%d evaluations for delta-only moves", m.Evaluations()-evals)
	}
	// One list copy is len(candidates) * 56 bytes (over 5 KB here).
	if perMove := (after.TotalAlloc - before.TotalAlloc) / moves; perMove > 1024 {
		t.Fatalf("a delta-only move allocates %d bytes", perMove)
	}
}
