package continuous

import (
	"math"
	"math/rand"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// FuzzMonitorDeltaEquivalence runs random op sequences on a small
// grid-snapped universe, where equal distances are common: private
// inserts, moves, removes and batches; public adds and removes; NN and
// radius registrations over both data kinds, with and without an
// excluded asker, every Filters setting and MinOverlap 0 or > 0;
// unregistrations and asker moves. After every op each standing
// query's candidate ID set must equal a fresh PrivateNN or
// PrivateRange on the same tables at the query's evaluation cloak, and
// the events, folded into the registration answer, must tell the
// subscriber exactly that set: one event per change of it, none
// without one, each dropping only held IDs and adding only new ones.
func FuzzMonitorDeltaEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 600)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDeltaOps(t, data)
	})
}

// fuzzCell is the grid the fuzz universe is snapped to: 8x8 cells.
const fuzzCell = 10

var fuzzWorld = geom.R(0, 0, 8*fuzzCell, 8*fuzzCell)

func runDeltaOps(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cell := func() float64 { return float64(next()%9) * fuzzCell }
	rect := func() geom.Rect {
		x, y := next()%8, next()%8
		w, h := 1+next()%3, 1+next()%3
		return geom.R(float64(x*fuzzCell), float64(y*fuzzCell),
			float64(min(x+w, 8)*fuzzCell), float64(min(y+h, 8)*fuzzCell))
	}

	// known is the candidate ID set each query's subscriber was told:
	// the registration answer, with every event folded in.
	known := map[QueryID]map[int64]bool{}
	var spurious error
	m := NewMonitor(Config{Universe: fuzzWorld, Notify: func(e Event) {
		if e.Kind != CandidatesChanged || known[e.Query] == nil {
			return
		}
		if err := applyDelta(known[e.Query], e); err != nil && spurious == nil {
			spurious = err
		}
	}})
	priv := map[int64]geom.Rect{}
	pub := map[int64]geom.Point{}
	var ids []QueryID

	for op := 0; len(data) > 0; op++ {
		switch next() % 10 {
		case 0, 1:
			pid, r := int64(next()%12), rect()
			if err := upsert(m, pid, r); err != nil {
				t.Fatal(err)
			}
			priv[pid] = r
		case 2:
			pid := int64(next() % 12)
			if _, live := priv[pid]; m.RemovePrivate(pid) != live {
				t.Fatalf("op %d: RemovePrivate(%d) disagrees with the mirror", op, pid)
			}
			delete(priv, pid)
		case 3:
			// A batch: later ops may force a re-run after earlier ones
			// changed a list by delta, and a pid may repeat.
			batch := make([]PrivateUpdate, 2+next()%3)
			for i := range batch {
				batch[i] = PrivateUpdate{ID: int64(next() % 12), Region: rect()}
			}
			if err := m.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			for _, u := range batch {
				priv[u.ID] = u.Region
			}
		case 4:
			id, p := int64(100+next()%10), geom.Pt(cell(), cell())
			if _, ok := pub[id]; !ok {
				m.AddPublic(rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: id})
				pub[id] = p
			}
		case 5:
			id := int64(100 + next()%10)
			if p, ok := pub[id]; ok {
				if !m.RemovePublic(id, geom.Rect{Min: p, Max: p}) {
					t.Fatalf("op %d: RemovePublic(%d) failed", op, id)
				}
				delete(pub, id)
			}
		case 6, 7:
			kind := privacyqp.DataKind(next() % 2)
			exclude := int64(-1)
			if kind == privacyqp.PrivateData && next()%2 == 0 {
				exclude = int64(next() % 12)
			}
			var id QueryID
			var cands []rtree.Item
			var err error
			if next()%2 == 0 {
				opt := privacyqp.Options{Filters: []int{1, 2, 4}[next()%3], MinOverlap: []float64{0, 0.25, 0.5}[next()%3]}
				id, cands, err = m.RegisterNN(rect(), kind, opt, exclude)
			} else {
				id, cands, err = m.RegisterRadius(rect(), []float64{0, 5, 10, 25}[next()%4], kind, exclude)
			}
			if err == nil {
				ids = append(ids, id)
				known[id] = idsOf(cands)
			}
		case 8:
			if len(ids) > 0 {
				i := next() % len(ids)
				m.Unregister(ids[i])
				delete(known, ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			}
		case 9:
			if len(ids) > 0 {
				id, c := ids[next()%len(ids)], rect()
				if m.queries[id].kind == qNN {
					_ = m.UpdateNNCloak(id, c)
				} else {
					_ = m.UpdateRadiusCloak(id, c)
				}
			}
		}
		if spurious != nil {
			t.Fatalf("op %d: %v", op, spurious)
		}
		checkDeltaEquivalence(t, op, m, priv, pub, known)
	}
}

func checkDeltaEquivalence(t *testing.T, op int, m *Monitor, priv map[int64]geom.Rect, pub map[int64]geom.Point, known map[QueryID]map[int64]bool) {
	t.Helper()
	var privItems, pubItems []rtree.Item
	for id, r := range priv {
		privItems = append(privItems, rtree.Item{Rect: r, ID: id})
	}
	for id, p := range pub {
		pubItems = append(pubItems, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: id})
	}
	privDB, pubDB := rtree.BulkLoad(privItems), rtree.BulkLoad(pubItems)
	for id, q := range m.queries {
		got, _ := m.Candidates(id)
		gotIDs := idsOf(got)
		if !sameIDSet(gotIDs, known[id]) {
			t.Fatalf("op %d: query %d holds %d candidates, its subscriber was told %d", op, id, len(gotIDs), len(known[id]))
		}
		var db privacyqp.SpatialIndex = pubDB
		if q.dataKind == privacyqp.PrivateData {
			db = privacyqp.Without(privDB, q.exclude)
		}
		var want privacyqp.Result
		var err error
		at := q.evalCloak
		if q.failed {
			// A failed evaluation must still fail at the asker's cloak.
			at = q.cloak
		}
		if q.kind == qNN {
			want, err = privacyqp.PrivateNN(db, at, q.dataKind, q.opt)
		} else {
			want, err = privacyqp.PrivateRange(db, at, q.radius, q.dataKind)
		}
		if q.failed {
			if err == nil {
				t.Fatalf("op %d: query %d is marked failed but a fresh evaluation succeeds", op, id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("op %d: query %d: fresh evaluation at %v: %v", op, id, at, err)
		}
		if wantIDs := idsOf(want.Candidates); !sameIDSet(gotIDs, wantIDs) {
			t.Fatalf("op %d: query %d (kind %d, %v, %+v, exclude %d): maintained %v != fresh %v at %v",
				op, id, q.kind, q.dataKind, q.opt, q.exclude, gotIDs, wantIDs, at)
		}
		if q.kind == qNN && q.dataKind == privacyqp.PublicData {
			// A public NN list must also stay inclusive for the asker's
			// current cloak, which may lie inside the evaluated cloak
			// rather than equal it.
			c := q.cloak
			for _, p := range []geom.Point{c.Min, c.Max, c.Center(), geom.Pt(c.Min.X, c.Max.Y), geom.Pt(c.Max.X, c.Min.Y)} {
				if nearestDist(p, got) > nearestDist(p, pubItems) {
					t.Fatalf("op %d: query %d: the nearest target of %v (asker cloak %v, evaluated at %v) is missing", op, id, p, c, q.evalCloak)
				}
			}
		}
	}
}

func nearestDist(p geom.Point, items []rtree.Item) float64 {
	best := math.Inf(1)
	for _, it := range items {
		best = math.Min(best, p.Dist(it.Rect.Min))
	}
	return best
}

func idsOf(items []rtree.Item) map[int64]bool {
	s := make(map[int64]bool, len(items))
	for _, it := range items {
		s[it.ID] = true
	}
	return s
}
