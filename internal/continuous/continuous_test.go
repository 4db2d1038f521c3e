package continuous

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

var world = geom.R(0, 0, 10000, 10000)

func randRegion(rng *rand.Rand, maxSide float64) geom.Rect {
	x, y := rng.Float64()*9000, rng.Float64()*9000
	return geom.R(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide).ClipTo(world)
}

// freshNN is the one-shot answer a standing NN query must hold at
// cloak: Algorithm 2's list, cut by the exact step over public data as
// server.NNPublic serves it.
func freshNN(db privacyqp.SpatialIndex, cloak geom.Rect, kind privacyqp.DataKind, opt privacyqp.Options) (privacyqp.Result, error) {
	if kind == privacyqp.PublicData {
		return privacyqp.ExactPublicNNInto(db, cloak, opt, nil)
	}
	return privacyqp.PrivateNN(db, cloak, kind, opt)
}

func sameIDSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// applyDelta folds a CandidatesChanged event into the candidate ID set
// its subscriber holds. It fails when the event is empty, drops an ID
// the set lacks, adds one the set already has, or both drops and adds
// one ID.
func applyDelta(set map[int64]bool, e Event) error {
	if len(e.Added) == 0 && len(e.Dropped) == 0 {
		return fmt.Errorf("query %d notified of an unchanged candidate set", e.Query)
	}
	dropped := make(map[int64]bool, len(e.Dropped))
	for _, id := range e.Dropped {
		if !set[id] {
			return fmt.Errorf("query %d: event drops %d, which its subscriber does not hold", e.Query, id)
		}
		delete(set, id)
		dropped[id] = true
	}
	for _, it := range e.Added {
		if set[it.ID] || dropped[it.ID] {
			return fmt.Errorf("query %d: event adds %d, which its subscriber holds or the event drops", e.Query, it.ID)
		}
		set[it.ID] = true
	}
	return nil
}

// upsert inserts or moves one private object: a batch of one.
func upsert(m *Monitor, id int64, region geom.Rect) error {
	return m.ApplyUpdates([]PrivateUpdate{{ID: id, Region: region}})
}

// rect returns the region stored under id, or the zero Rect when id
// is not stored.
func (t *slotTable) rect(id int64) geom.Rect {
	s, ok := t.of[id]
	if !ok {
		return geom.Rect{}
	}
	return t.items[s].Rect
}

func TestRangeCountIncrementalMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMonitor(Config{})
	// Standing queries of every policy.
	type reg struct {
		id     QueryID
		rect   geom.Rect
		policy privacyqp.CountPolicy
	}
	var regs []reg
	for i := 0; i < 12; i++ {
		r := randRegion(rng, 3000)
		policy := []privacyqp.CountPolicy{
			privacyqp.CountAnyOverlap, privacyqp.CountCenterIn, privacyqp.CountFractional,
		}[i%3]
		id, count, err := m.RegisterRangeCount(r, policy)
		if err != nil {
			t.Fatal(err)
		}
		if count != 0 {
			t.Fatalf("initial count = %v", count)
		}
		regs = append(regs, reg{id, r, policy})
	}
	// Churn objects.
	live := map[int64]geom.Rect{}
	next := int64(0)
	for round := 0; round < 3000; round++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.4:
			r := randRegion(rng, 300)
			if err := upsert(m, next, r); err != nil {
				t.Fatal(err)
			}
			live[next] = r
			next++
		case rng.Float64() < 0.3:
			for id := range live {
				if !m.RemovePrivate(id) {
					t.Fatalf("remove %d failed", id)
				}
				delete(live, id)
				break
			}
		default:
			for id := range live {
				r := randRegion(rng, 300)
				if err := upsert(m, id, r); err != nil {
					t.Fatal(err)
				}
				live[id] = r
				break
			}
		}
	}
	// Oracle: every maintained count equals a from-scratch computation.
	for _, rg := range regs {
		want := 0.0
		for _, r := range live {
			want += rg.policy.Contribution(r, rg.rect)
		}
		got, ok := m.Count(rg.id)
		if !ok {
			t.Fatalf("query %d vanished", rg.id)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("query %d (%v): maintained %v, snapshot %v", rg.id, rg.policy, got, want)
		}
	}
}

func TestRangeCountNotifications(t *testing.T) {
	var events []Event
	m := NewMonitor(Config{Notify: func(e Event) { events = append(events, e) }})
	id, _, err := m.RegisterRangeCount(geom.R(0, 0, 100, 100), privacyqp.CountAnyOverlap)
	if err != nil {
		t.Fatal(err)
	}
	// An object outside the region: no event.
	if err := upsert(m, 1, geom.R(500, 500, 600, 600)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("unexpected events: %v", events)
	}
	// Entering the region: one CountChanged.
	if err := upsert(m, 1, geom.R(50, 50, 60, 60)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Query != id || events[0].Count != 1 {
		t.Fatalf("events = %+v", events)
	}
	// Moving within the region with the same contribution: no event.
	if err := upsert(m, 1, geom.R(10, 10, 20, 20)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("move within region emitted: %+v", events)
	}
	// Leaving: count back to 0.
	if err := upsert(m, 1, geom.R(900, 900, 950, 950)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Count != 0 {
		t.Fatalf("events = %+v", events)
	}
}

func TestContinuousNNOverPublicData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMonitor(Config{})
	var items []rtree.Item
	for i := 0; i < 500; i++ {
		p := geom.Pt(rng.Float64()*9000, rng.Float64()*9000)
		items = append(items, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)})
	}
	m.SetPublic(items)

	cloak := geom.R(4000, 4000, 4400, 4400)
	id, cands, err := m.RegisterNN(cloak, privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no initial candidates")
	}
	// The maintained answer always equals a fresh snapshot query.
	checkSnapshot := func() {
		t.Helper()
		got, ok := m.Candidates(id)
		if !ok {
			t.Fatal("query vanished")
		}
		db := rtree.BulkLoad(append([]rtree.Item(nil), m.pub.All()...))
		want, err := freshNN(db, cloak, privacyqp.PublicData, privacyqp.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Candidates) {
			t.Fatalf("maintained %d candidates, snapshot %d", len(got), len(want.Candidates))
		}
	}
	checkSnapshot()

	// Insert a target inside the cloak: it must appear.
	m.AddPublic(rtree.Item{Rect: geom.Rect{Min: geom.Pt(4200, 4200), Max: geom.Pt(4200, 4200)}, ID: 9001})
	got, _ := m.Candidates(id)
	found := false
	for _, c := range got {
		if c.ID == 9001 {
			found = true
		}
	}
	if !found {
		t.Fatal("new in-cloak target missing from maintained candidates")
	}
	checkSnapshot()

	// Remove it again.
	if !m.RemovePublic(9001, geom.Rect{Min: geom.Pt(4200, 4200), Max: geom.Pt(4200, 4200)}) {
		t.Fatal("remove failed")
	}
	checkSnapshot()
}

func TestContinuousNNSkipsIrrelevantUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMonitor(Config{})
	var items []rtree.Item
	for i := 0; i < 300; i++ {
		p := geom.Pt(rng.Float64()*2000, rng.Float64()*2000) // dense SW corner
		items = append(items, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)})
	}
	m.SetPublic(items)
	if _, _, err := m.RegisterNN(geom.R(100, 100, 300, 300), privacyqp.PublicData, privacyqp.DefaultOptions(), -1); err != nil {
		t.Fatal(err)
	}
	evalsBefore := m.Evaluations()
	// Far-away inserts must not trigger re-evaluation.
	for i := 0; i < 50; i++ {
		p := geom.Pt(8000+rng.Float64()*1000, 8000+rng.Float64()*1000)
		m.AddPublic(rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(5000 + i)})
	}
	if got := m.Evaluations(); got != evalsBefore {
		t.Fatalf("far inserts caused %d evaluations", got-evalsBefore)
	}
	if m.Updates() < 50 {
		t.Fatal("updates not counted")
	}
}

func TestContinuousNNCloakUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMonitor(Config{})
	var items []rtree.Item
	for i := 0; i < 400; i++ {
		p := geom.Pt(rng.Float64()*9000, rng.Float64()*9000)
		items = append(items, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)})
	}
	m.SetPublic(items)
	cloak := geom.R(1000, 1000, 1500, 1500)
	id, _, err := m.RegisterNN(cloak, privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
	if err != nil {
		t.Fatal(err)
	}
	evals := m.Evaluations()
	// Same cloak: free.
	if err := m.UpdateNNCloak(id, cloak); err != nil {
		t.Fatal(err)
	}
	if m.Evaluations() != evals {
		t.Fatal("unchanged cloak re-evaluated")
	}
	// Moved cloak: recomputed, matches a snapshot.
	newCloak := geom.R(7000, 7000, 7600, 7600)
	if err := m.UpdateNNCloak(id, newCloak); err != nil {
		t.Fatal(err)
	}
	if m.Evaluations() != evals+1 {
		t.Fatal("moved cloak not re-evaluated")
	}
	// A cloak inside the evaluated one keeps the list: a counter bump.
	hits := m.SafeRegionHits()
	if err := m.UpdateNNCloak(id, geom.R(7100, 7100, 7300, 7300)); err != nil {
		t.Fatal(err)
	}
	if m.Evaluations() != evals+1 || m.SafeRegionHits() != hits+1 {
		t.Fatal("a cloak inside the evaluated one re-evaluated")
	}
	got, _ := m.Candidates(id)
	want, err := freshNN(rtree.BulkLoad(items), newCloak, privacyqp.PublicData, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Candidates) {
		t.Fatalf("maintained %d, snapshot %d", len(got), len(want.Candidates))
	}
	if err := m.UpdateNNCloak(999, cloak); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestContinuousBuddyTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMonitor(Config{})
	// 200 cloaked buddies.
	for i := int64(0); i < 200; i++ {
		if err := upsert(m, i, randRegion(rng, 200)); err != nil {
			t.Fatal(err)
		}
	}
	cloak := geom.R(4500, 4500, 4800, 4800)
	id, _, err := m.RegisterNN(cloak, privacyqp.PrivateData, privacyqp.DefaultOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// The excluded pseudonym never appears, across churn.
	for round := 0; round < 500; round++ {
		uid := int64(rng.Intn(200))
		if err := upsert(m, uid, randRegion(rng, 200)); err != nil {
			t.Fatal(err)
		}
		cands, _ := m.Candidates(id)
		for _, c := range cands {
			if c.ID == 7 {
				t.Fatalf("round %d: excluded buddy in candidates", round)
			}
		}
	}
	// Maintained candidates match a snapshot (modulo exclusion).
	got, _ := m.Candidates(id)
	snap, err := privacyqp.PrivateNN(m.priv, cloak, privacyqp.PrivateData, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := map[int64]bool{}
	for _, c := range snap.Candidates {
		if c.ID != 7 {
			wantIDs[c.ID] = true
		}
	}
	if len(got) != len(wantIDs) {
		t.Fatalf("maintained %d, snapshot %d", len(got), len(wantIDs))
	}
}

func TestUnregister(t *testing.T) {
	m := NewMonitor(Config{})
	id, _, err := m.RegisterRangeCount(geom.R(0, 0, 10, 10), privacyqp.CountAnyOverlap)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Unregister(id) {
		t.Fatal("unregister failed")
	}
	if m.Unregister(id) {
		t.Fatal("double unregister succeeded")
	}
	if _, ok := m.Count(id); ok {
		t.Fatal("count after unregister")
	}
	if _, ok := m.Candidates(id); ok {
		t.Fatal("candidates after unregister")
	}
}

func TestInvalidInputs(t *testing.T) {
	m := NewMonitor(Config{})
	if err := upsert(m, 1, geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(1, 1)}); err == nil {
		t.Fatal("invalid region accepted")
	}
	if _, _, err := m.RegisterRangeCount(geom.Rect{Min: geom.Pt(math.NaN(), 0)}, privacyqp.CountAnyOverlap); err == nil {
		t.Fatal("invalid query region accepted")
	}
	if _, _, err := m.RegisterNN(geom.R(0, 0, 1, 1), privacyqp.PublicData, privacyqp.DefaultOptions(), -1); err == nil {
		t.Fatal("NN over empty table should error")
	}
	if m.RemovePrivate(99) {
		t.Fatal("remove of unknown object succeeded")
	}
	if m.RemovePublic(99, geom.R(0, 0, 1, 1)) {
		t.Fatal("remove of unknown public object succeeded")
	}
}

func TestIncrementalSavings(t *testing.T) {
	// The headline: a standing query over a busy system re-evaluates
	// rarely relative to the update volume.
	rng := rand.New(rand.NewSource(6))
	m := NewMonitor(Config{})
	for i := int64(0); i < 500; i++ {
		if err := upsert(m, i, randRegion(rng, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.RegisterNN(geom.R(100, 100, 400, 400), privacyqp.PrivateData, privacyqp.DefaultOptions(), -1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RegisterRangeCount(geom.R(8000, 8000, 9000, 9000), privacyqp.CountFractional); err != nil {
		t.Fatal(err)
	}
	u0, e0 := m.Updates(), m.Evaluations()
	for round := 0; round < 2000; round++ {
		uid := int64(rng.Intn(500))
		if err := upsert(m, uid, randRegion(rng, 150)); err != nil {
			t.Fatal(err)
		}
	}
	updates := m.Updates() - u0
	evals := m.Evaluations() - e0
	if updates != 2000 {
		t.Fatalf("updates = %d", updates)
	}
	if evals >= updates/2 {
		t.Fatalf("incremental processing saved too little: %d evaluations for %d updates", evals, updates)
	}
}

func TestConcurrentMonitorAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMonitor(Config{})
	for i := int64(0); i < 200; i++ {
		if err := upsert(m, i, randRegion(rng, 200)); err != nil {
			t.Fatal(err)
		}
	}
	id, _, err := m.RegisterRangeCount(geom.R(0, 0, 5000, 5000), privacyqp.CountAnyOverlap)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				switch r.Intn(3) {
				case 0:
					_ = upsert(m, int64(r.Intn(200)), randRegion(r, 200))
				case 1:
					_, _ = m.Count(id)
				case 2:
					_ = m.Updates()
				}
			}
		}(int64(w + 10))
	}
	wg.Wait()
}

func TestStandingRadiusQueryOverPublicData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMonitor(Config{})
	var items []rtree.Item
	for i := 0; i < 400; i++ {
		p := geom.Pt(rng.Float64()*9000, rng.Float64()*9000)
		items = append(items, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)})
	}
	m.SetPublic(items)

	cloak := geom.R(4000, 4000, 4300, 4300)
	id, cands, err := m.RegisterRadius(cloak, 600, privacyqp.PublicData, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Initial answer equals a snapshot.
	snap, err := privacyqp.PrivateRange(rtree.BulkLoad(items), cloak, 600, privacyqp.PublicData)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(snap.Candidates) {
		t.Fatalf("initial %d, snapshot %d", len(cands), len(snap.Candidates))
	}
	// A target appearing inside the radius shows up.
	m.AddPublic(rtree.Item{Rect: geom.Rect{Min: geom.Pt(4100, 4100), Max: geom.Pt(4100, 4100)}, ID: 9001})
	got, _ := m.Candidates(id)
	found := false
	for _, c := range got {
		if c.ID == 9001 {
			found = true
		}
	}
	if !found {
		t.Fatal("in-radius arrival missed")
	}
	// A far-away arrival does not re-evaluate.
	evals := m.Evaluations()
	m.AddPublic(rtree.Item{Rect: geom.Rect{Min: geom.Pt(100, 100), Max: geom.Pt(100, 100)}, ID: 9002})
	if m.Evaluations() != evals {
		t.Fatal("far arrival re-evaluated the radius query")
	}
	// Removing the candidate drops it.
	m.RemovePublic(9001, geom.Rect{Min: geom.Pt(4100, 4100), Max: geom.Pt(4100, 4100)})
	got, _ = m.Candidates(id)
	for _, c := range got {
		if c.ID == 9001 {
			t.Fatal("removed candidate lingers")
		}
	}
	// Cloak movement.
	if err := m.UpdateRadiusCloak(id, geom.R(8000, 8000, 8300, 8300)); err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateRadiusCloak(999, cloak); err == nil {
		t.Fatal("unknown query accepted")
	}
	if !m.Unregister(id) {
		t.Fatal("unregister failed")
	}
}

func TestStandingRadiusQueryOverPrivateData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMonitor(Config{})
	for i := int64(0); i < 150; i++ {
		if err := upsert(m, i, randRegion(rng, 200)); err != nil {
			t.Fatal(err)
		}
	}
	cloak := geom.R(4000, 4000, 4400, 4400)
	id, _, err := m.RegisterRadius(cloak, 800, privacyqp.PrivateData, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Churn; the maintained answer must always equal a snapshot (minus
	// the excluded pseudonym) and never contain the exclusion.
	for round := 0; round < 300; round++ {
		uid := int64(rng.Intn(150))
		if err := upsert(m, uid, randRegion(rng, 200)); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := m.Candidates(id)
	if !ok {
		t.Fatal("query vanished")
	}
	for _, c := range got {
		if c.ID == 3 {
			t.Fatal("excluded pseudonym present")
		}
	}
	snap, err := privacyqp.PrivateRange(m.priv, cloak, 800, privacyqp.PrivateData)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range snap.Candidates {
		if c.ID != 3 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("maintained %d, snapshot %d", len(got), want)
	}
}
