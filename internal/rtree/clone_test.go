package rtree

import (
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"casper/internal/geom"
)

// churnOp is one step of a replayable write sequence: an insert of
// item, or (del set) a delete of item.
type churnOp struct {
	del  bool
	item Item
}

// churnOps returns n inserts followed by m random inserts and deletes
// of live items, generated once so several trees can replay the exact
// same sequence.
func churnOps(rng *rand.Rand, n, m int) []churnOp {
	var ops []churnOp
	var live []Item
	nextID := int64(0)
	insert := func() {
		it := randRectItem(rng, nextID)
		nextID++
		live = append(live, it)
		ops = append(ops, churnOp{item: it})
	}
	for i := 0; i < n; i++ {
		insert()
	}
	for i := 0; i < m; i++ {
		if len(live) == 0 || rng.Float64() < 0.5 {
			insert()
			continue
		}
		k := rng.Intn(len(live))
		ops = append(ops, churnOp{del: true, item: live[k]})
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return ops
}

func (op churnOp) apply(tr *Tree) bool {
	if op.del {
		return tr.Delete(op.item.ID, op.item.Rect)
	}
	tr.Insert(op.item)
	return true
}

// TestCloneSnapshotsPersist keeps a snapshot before every write batch
// (sometimes the clone, sometimes the tree it was cloned from) and
// checks at the end that no later write leaked into any of them.
func TestCloneSnapshotsPersist(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type kept struct {
		tr   *Tree
		want map[int64]Item
	}
	tr := NewWithCapacity(8)
	live := map[int64]Item{}
	var snaps []kept
	ops := churnOps(rng, 300, 3000)
	for start := 0; start < len(ops); start += 50 {
		if rng.Intn(2) == 0 {
			snaps = append(snaps, kept{tr, maps.Clone(live)})
			tr = tr.Clone()
		} else {
			snaps = append(snaps, kept{tr.Clone(), maps.Clone(live)})
		}
		for _, op := range ops[start:min(start+50, len(ops))] {
			if !op.apply(tr) {
				t.Fatalf("delete of live item %d failed", op.item.ID)
			}
			if op.del {
				delete(live, op.item.ID)
			} else {
				live[op.item.ID] = op.item
			}
		}
	}
	snaps = append(snaps, kept{tr, live})
	for i, k := range snaps {
		got := k.tr.All()
		if len(got) != len(k.want) || k.tr.Len() != len(k.want) {
			t.Fatalf("snapshot %d: All has %d items, Len %d, want %d", i, len(got), k.tr.Len(), len(k.want))
		}
		for _, it := range got {
			if w, ok := k.want[it.ID]; !ok || w != it {
				t.Fatalf("snapshot %d: unexpected item %v", i, it)
			}
		}
		if err := k.tr.CheckInvariants(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
}

// TestCloneEveryWriteMatchesInPlace: copying paths instead of mutating
// in place runs the same algorithm on copies, so a tree cloned before
// every write has the same shape and answers in the same order as one
// mutated in place.
func TestCloneEveryWriteMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	inPlace, cow := NewWithCapacity(8), NewWithCapacity(8)
	ops := churnOps(rng, 500, 2500)
	compare := func(step int) {
		t.Helper()
		if a, b := inPlace.Stats(), cow.Stats(); a != b {
			t.Fatalf("step %d: Stats %+v (in place) != %+v (cloned)", step, a, b)
		}
		for i := 0; i < 20; i++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			q := geom.R(x, y, x+rng.Float64()*200, y+rng.Float64()*200)
			if a, b := inPlace.Search(q), cow.Search(q); !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d: Search(%v) differs:\n%v\n%v", step, q, a, b)
			}
			p := geom.Pt(x, y)
			for _, m := range []Metric{MinDist, MaxDist} {
				if a, b := inPlace.NearestK(p, 7, m), cow.NearestK(p, 7, m); !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: NearestK(%v, %v) differs:\n%v\n%v", step, p, m, a, b)
				}
			}
		}
	}
	for i, op := range ops {
		cow = cow.Clone()
		if a, b := op.apply(inPlace), op.apply(cow); a != b || !a {
			t.Fatalf("step %d: delete results %v (in place) and %v (cloned)", i, a, b)
		}
		if i%250 == 0 {
			compare(i)
		}
	}
	compare(len(ops))
	if err := cow.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneSharesUntouchedNodes: an insert into a clone copies its
// root-to-leaf path and nothing else; the original keeps every node.
func TestCloneSharesUntouchedNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	orig := NewWithCapacity(8)
	for _, op := range churnOps(rng, 2000, 0) {
		op.apply(orig)
	}
	before := orig.Stats()
	for i := 0; i < 50; i++ {
		clone := orig.Clone()
		clone.Insert(randRectItem(rng, int64(10000+i)))
		if got := orig.Stats(); got != before {
			t.Fatalf("insert into clone changed the original: %+v, was %+v", got, before)
		}
		if shared, limit := SharedNodes(orig, clone), before.Nodes-(before.Height+1); shared < limit {
			t.Fatalf("clone shares %d of %d nodes after one insert, want >= %d", shared, before.Nodes, limit)
		}
		if err := clone.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersOfClonedSnapshots runs the server's RCU pattern
// under the race detector: one writer clones the published tree,
// mutates the clone and publishes it, while readers query whatever
// snapshot they loaded and check it against that snapshot's contents.
func TestConcurrentReadersOfClonedSnapshots(t *testing.T) {
	type snapshot struct {
		tr    *Tree
		items []Item
	}
	rng := rand.New(rand.NewSource(34))
	ops := churnOps(rng, 500, 1500)
	tr := NewWithCapacity(8)
	var live []Item
	for _, op := range ops[:500] {
		op.apply(tr)
		live = append(live, op.item)
	}
	var cur atomic.Pointer[snapshot]
	cur.Store(&snapshot{tr, append([]Item(nil), live...)})

	var done atomic.Bool
	defer done.Store(true)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				s := cur.Load()
				x, y := rng.Float64()*1000, rng.Float64()*1000
				q := geom.R(x, y, x+100, y+100)
				want := bruteRange(s.items, q)
				got := s.tr.Search(q)
				if len(got) != len(want) {
					t.Errorf("Search(%v) = %d items, snapshot holds %d", q, len(got), len(want))
					return
				}
				for _, it := range got {
					if !want[it.ID] {
						t.Errorf("Search(%v) returned %d, not in snapshot", q, it.ID)
						return
					}
				}
				p := geom.Pt(x, y)
				gotNN, wantNN := s.tr.NearestK(p, 5, MaxDist), bruteNearestK(s.items, p, 5, MaxDist)
				if len(gotNN) != len(wantNN) {
					t.Errorf("NearestK(%v) = %d neighbors, want %d", p, len(gotNN), len(wantNN))
					return
				}
				for i := range gotNN {
					if gotNN[i].Dist != wantNN[i].Dist {
						t.Errorf("NearestK(%v) rank %d: %v, want %v", p, i, gotNN[i].Dist, wantNN[i].Dist)
						return
					}
				}
			}
		}(int64(r))
	}

	for start := 500; start < len(ops); start += 5 {
		next := cur.Load().tr.Clone()
		for _, op := range ops[start:min(start+5, len(ops))] {
			if !op.apply(next) {
				t.Fatalf("delete of live item %d failed", op.item.ID)
			}
			if !op.del {
				live = append(live, op.item)
				continue
			}
			for k, it := range live {
				if it.ID == op.item.ID {
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		}
		cur.Store(&snapshot{next, append([]Item(nil), live...)})
	}
	done.Store(true)
	wg.Wait()
	if err := cur.Load().tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
