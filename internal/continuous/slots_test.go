package continuous

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// TestSlotLifetime drives the paths that release and reuse slots: an
// ingestion that removes a candidate of a query marked for a re-run
// and inserts new pids that could take its slot, SetPublic with
// overlapping and disjoint ID sets, and AddPublic/RemovePublic. After
// each step every standing list must equal a fresh evaluation at the
// query's evaluation cloak, item for item (IDs, rects and public
// names), and its subscriber must have been told its ID set.
func TestSlotLifetime(t *testing.T) {
	// known is each query's candidate ID set as its subscriber was
	// told: the registration answer, with every event folded in.
	known := map[QueryID]map[int64]bool{}
	var bad error
	m := NewMonitor(Config{Notify: func(e Event) {
		if e.Kind == CandidatesChanged && bad == nil {
			bad = applyDelta(known[e.Query], e)
		}
	}})
	priv := map[int64]geom.Rect{}
	pub := map[int64]rtree.Item{}
	setPublic := func(items []rtree.Item) {
		clear(pub)
		for _, it := range items {
			pub[it.ID] = it
		}
		m.SetPublic(items)
	}
	publicGrid := func(id0 int64, off float64, tag string) []rtree.Item {
		var items []rtree.Item
		for i := 0; i < 100; i++ {
			p := geom.Pt(off+float64(i%10)*100, off+float64(i/10)*100)
			id := id0 + int64(i)
			items = append(items, rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: id, Data: fmt.Sprintf("%s%d", tag, id)})
		}
		return items
	}

	// 100 private users on a 10x10 grid of 20x20 cells, 100 apart.
	var seed []PrivateUpdate
	for i := int64(0); i < 100; i++ {
		x, y := float64(i%10)*100, float64(i/10)*100
		seed = append(seed, PrivateUpdate{ID: i, Region: geom.R(x, y, x+20, y+20)})
		priv[i] = seed[i].Region
	}
	if err := m.ApplyUpdates(seed); err != nil {
		t.Fatal(err)
	}
	setPublic(publicGrid(0, 5, "a"))

	cloak := geom.R(430, 430, 470, 470)
	one := privacyqp.Options{Filters: 1}
	var ids []QueryID
	watch := func(id QueryID, cands []rtree.Item, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		known[id] = idsOf(cands)
	}
	watch(m.RegisterNN(cloak, privacyqp.PrivateData, one, -1))
	watch(m.RegisterNN(cloak, privacyqp.PrivateData, privacyqp.DefaultOptions(), 0))
	watch(m.RegisterRadius(cloak, 250, privacyqp.PrivateData, -1))
	watch(m.RegisterNN(cloak, privacyqp.PublicData, privacyqp.DefaultOptions(), -1))
	watch(m.RegisterRadius(cloak, 250, privacyqp.PublicData, -1))

	check := func(step string) {
		t.Helper()
		if bad != nil {
			t.Fatalf("%s: %v", step, bad)
		}
		var privItems, pubItems []rtree.Item
		for id, r := range priv {
			privItems = append(privItems, rtree.Item{Rect: r, ID: id})
		}
		for _, it := range pub {
			pubItems = append(pubItems, it)
		}
		privDB, pubDB := rtree.BulkLoad(privItems), rtree.BulkLoad(pubItems)
		for _, id := range ids {
			q := m.queries[id]
			var db privacyqp.SpatialIndex = pubDB
			if q.dataKind == privacyqp.PrivateData {
				db = privacyqp.Without(privDB, q.exclude)
			}
			var want privacyqp.Result
			var err error
			if q.kind == qNN {
				want, err = privacyqp.PrivateNN(db, q.evalCloak, q.dataKind, q.opt)
			} else {
				want, err = privacyqp.PrivateRange(db, q.evalCloak, q.radius, q.dataKind)
			}
			if err != nil || q.failed {
				t.Fatalf("%s: query %d: failed %v, fresh evaluation: %v", step, id, q.failed, err)
			}
			got, _ := m.Candidates(id)
			byID := func(a, b rtree.Item) int { return int(a.ID - b.ID) }
			slices.SortFunc(got, byID)
			slices.SortFunc(want.Candidates, byID)
			if !reflect.DeepEqual(got, want.Candidates) {
				t.Fatalf("%s: query %d (kind %d, %v): maintained\n%v\nfresh\n%v", step, id, q.kind, q.dataKind, got, want.Candidates)
			}
			if !sameIDSet(idsOf(got), known[id]) {
				t.Fatalf("%s: query %d holds %v, its subscriber was told %v", step, id, idsOf(got), known[id])
			}
		}
	}
	check("registration")

	// The first query's one filter is the user nearest the cloak's
	// center. One ingestion removes it, which marks the query for a
	// re-run while its list still holds the filter's slot, and inserts
	// new pids that could take the released slot, the first at the
	// removed cell, so the re-run's list differs only in that ID. A
	// lower pid's removal first releases a slot no list holds.
	// ApplyUpdates only upserts, so the test drives the ingestion core.
	nn := m.queries[ids[0]]
	if len(nn.res.Filters) != 1 || nn.res.Filters[0].ID == 0 {
		t.Fatalf("setup: filters %v", nn.res.Filters)
	}
	filter := nn.res.Filters[0]
	ops := []applyOp{{pid: 0, remove: true}, {pid: filter.ID, remove: true}}
	delete(priv, 0)
	delete(priv, filter.ID)
	for i, r := range []geom.Rect{filter.Rect, geom.R(300, 300, 320, 320), geom.R(600, 420, 610, 430)} {
		pid := int64(1000 + i)
		ops = append(ops, applyOp{pid: pid, region: r})
		priv[pid] = r
	}
	evals := m.Evaluations()
	m.applyPrivate(ops)
	if got, _ := m.Candidates(ids[0]); m.Evaluations() == evals || !idsOf(got)[1000] || idsOf(got)[filter.ID] {
		t.Fatalf("setup: the filter's removal did not re-run the first query: %v", got)
	}
	check("remove and insert in one ingestion")

	// A moved pid keeps its slot; a re-announced one changes nothing.
	if err := m.ApplyUpdates([]PrivateUpdate{{ID: 1001, Region: geom.R(380, 380, 400, 400)}, {ID: 1002, Region: geom.R(600, 420, 610, 430)}}); err != nil {
		t.Fatal(err)
	}
	priv[1001] = geom.R(380, 380, 400, 400)
	check("moves")

	// Public tables: half the IDs kept (every kept item moved and
	// renamed), then none kept, then one added and one removed.
	setPublic(publicGrid(50, 25, "b"))
	check("SetPublic, overlapping IDs")
	setPublic(publicGrid(500, 15, "c"))
	check("SetPublic, disjoint IDs")
	add := rtree.Item{Rect: geom.R(450, 450, 450, 450), ID: 9000, Data: "added"}
	m.AddPublic(add)
	pub[add.ID] = add
	check("AddPublic")
	if !known[ids[3]][add.ID] {
		t.Fatalf("setup: the added object is not a public NN candidate")
	}
	gone := pub[544]
	if !m.RemovePublic(gone.ID, gone.Rect) {
		t.Fatalf("RemovePublic(%d) failed", gone.ID)
	}
	delete(pub, gone.ID)
	check("RemovePublic")
	m.AddPublic(rtree.Item{Rect: geom.R(445, 445, 445, 445), ID: 9001, Data: "reused"})
	pub[9001] = rtree.Item{Rect: geom.R(445, 445, 445, 445), ID: 9001, Data: "reused"}
	check("AddPublic into a reclaimed slot")
}
