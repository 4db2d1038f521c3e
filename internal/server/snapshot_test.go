package server

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"casper/internal/geom"
	"casper/internal/privacyqp"
)

func seedPrivate(t testing.TB, s *Server, rng *rand.Rand, n int) {
	t.Helper()
	objs := make([]PrivateObject, n)
	for i := range objs {
		objs[i] = PrivateObject{ID: int64(i), Region: randCloak(rng)}
	}
	if err := s.UpsertPrivateBatch(objs); err != nil {
		t.Fatal(err)
	}
}

func randCloak(rng *rand.Rand) geom.Rect {
	x, y := rng.Float64()*900, rng.Float64()*900
	return geom.R(x, y, x+1+rng.Float64()*60, y+1+rng.Float64()*60)
}

// TestStressSnapshotInclusiveness is the snapshot-isolation property
// test: a query evaluated against a snapshot pinned DURING concurrent
// writes must return exactly what the same query returns against the
// same snapshot re-evaluated quiescently, after all writers stopped.
// Equality proves published trees are immutable — writers never touch
// a tree a reader may hold — which is what carries the paper's
// inclusiveness guarantees (Theorems 1-4) over to the concurrent
// server: every query sees one consistent table, never a half-applied
// batch.
func TestStressSnapshotInclusiveness(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(31))
	seedPrivate(t, s, rng, 512)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]PrivateObject, 32)
				for i := range batch {
					batch[i] = PrivateObject{ID: int64(wrng.Intn(512)), Region: randCloak(wrng)}
				}
				if err := s.UpsertPrivateBatch(batch); err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				if wrng.Intn(8) == 0 {
					// Removal then reinsert keeps the table populated.
					id := int64(wrng.Intn(512))
					if err := s.RemovePrivate(id); err == nil {
						_ = s.UpsertPrivate(PrivateObject{ID: id, Region: randCloak(wrng)})
					}
				}
			}
		}(int64(100 + w))
	}

	type observation struct {
		snap  *indexSnapshot
		cloak geom.Rect
		k     int
		res   privacyqp.Result
	}
	opt := privacyqp.DefaultOptions()
	var obs []observation
	for i := 0; i < 300; i++ {
		snap := s.snap.Load()
		cloak := randCloak(rng)
		k := 1 + rng.Intn(4)
		var res privacyqp.Result
		var err error
		if k == 1 {
			res, err = privacyqp.PrivateNN(snap.private, cloak, privacyqp.PrivateData, opt)
		} else {
			res, err = privacyqp.PrivateKNN(snap.private, cloak, k, privacyqp.PrivateData, opt)
		}
		if err != nil {
			t.Fatalf("query %d under writes: %v", i, err)
		}
		obs = append(obs, observation{snap: snap, cloak: cloak, k: k, res: res})
	}
	close(stop)
	wg.Wait()

	for i, o := range obs {
		var again privacyqp.Result
		var err error
		if o.k == 1 {
			again, err = privacyqp.PrivateNN(o.snap.private, o.cloak, privacyqp.PrivateData, opt)
		} else {
			again, err = privacyqp.PrivateKNN(o.snap.private, o.cloak, o.k, privacyqp.PrivateData, opt)
		}
		if err != nil {
			t.Fatalf("quiescent rerun %d: %v", i, err)
		}
		if !reflect.DeepEqual(o.res, again) {
			t.Fatalf("observation %d: result under writes differs from quiescent rerun\nduring: %+v\nafter:  %+v",
				i, o.res, again)
		}
	}
}

// TestStressQueriesDuringSnapshotUpdates interleaves private-table
// update batches and public-table mutations with every query type,
// under -race. Queries must never error (beyond expected validation)
// and never observe a torn table.
func TestStressQueriesDuringSnapshotUpdates(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(32))
	seedPrivate(t, s, rng, 256)
	pubs := make([]PublicObject, 128)
	for i := range pubs {
		pubs[i] = PublicObject{ID: int64(i), Pos: geom.Pt(rng.Float64()*1000, rng.Float64()*1000), Name: fmt.Sprintf("p%d", i)}
	}
	s.LoadPublic(pubs)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Private writers: batched location updates.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]PrivateObject, 64)
				for i := range batch {
					batch[i] = PrivateObject{ID: int64(wrng.Intn(256)), Region: randCloak(wrng)}
				}
				if err := s.UpsertPrivateBatch(batch); err != nil {
					t.Errorf("batch: %v", err)
					return
				}
			}
		}(int64(200 + w))
	}

	// Public writer: churns one rotating slot so every publish brings
	// a fresh public memo, but the table never shrinks below the
	// KNN k bound.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(300))
		next := int64(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			o := PublicObject{ID: next, Pos: geom.Pt(wrng.Float64()*1000, wrng.Float64()*1000)}
			if err := s.AddPublic(o); err != nil {
				t.Errorf("add public: %v", err)
				return
			}
			if err := s.RemovePublic(next); err != nil {
				t.Errorf("remove public: %v", err)
				return
			}
			next++
		}
	}()

	// Readers: all five query types plus the aggregate views.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed))
			opt := privacyqp.DefaultOptions()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cloak := randCloak(rrng)
				var err error
				switch i % 6 {
				case 0:
					_, err = s.NNPublic(cloak, opt)
				case 1:
					_, err = s.KNNPublic(cloak, 1+rrng.Intn(5), opt)
				case 2:
					_, err = s.RangePublic(cloak, 50+rrng.Float64()*100)
				case 3:
					_, err = s.NNPrivate(cloak, int64(rrng.Intn(256)), opt)
				case 4:
					_, err = s.NNPrivate(cloak, -1, opt)
				case 5:
					_, err = s.CountPrivate(cloak, privacyqp.CountFractional)
				}
				if err != nil {
					t.Errorf("reader query (kind %d): %v", i%6, err)
					return
				}
				if n := s.PrivateCount(); n != 256 {
					t.Errorf("PrivateCount = %d mid-run, want 256 (snapshot torn?)", n)
					return
				}
			}
		}(int64(400 + r))
	}

	// A short wall-clock window interleaves thousands of operations
	// even on one core.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Final sanity: lookups agree with the snapshot.
	if n := s.PublicCount(); n != 128 {
		t.Fatalf("PublicCount = %d, want 128", n)
	}
	if _, ok := s.GetPrivate(0); !ok {
		t.Fatal("private object 0 missing after stress")
	}
	if err := s.RemovePrivate(99999); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("remove unknown: %v", err)
	}
}

// TestUpsertPrivateCopiesPathNotTree bounds what one cloak refresh
// copies: with 20,000 stored cloaks it must copy the O(height) nodes
// on its delete and insert paths, not the whole private tree (a full
// copy at this size is over a megabyte and about 2,000 allocations).
func TestUpsertPrivateCopiesPathNotTree(t *testing.T) {
	const n = 20000
	s := New()
	rng := rand.New(rand.NewSource(30))
	seedPrivate(t, s, rng, n)
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && err == nil; i++ {
			err = s.UpsertPrivate(PrivateObject{ID: int64(i % n), Region: randCloak(rng)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.PrivateCount() != n {
		t.Fatalf("PrivateCount = %d, want %d", s.PrivateCount(), n)
	}
	bytes, allocs := res.AllocedBytesPerOp(), res.AllocsPerOp()
	t.Logf("UpsertPrivate at %d cloaks: %d B, %d allocs per op", n, bytes, allocs)
	if bytes > 64<<10 || allocs > 100 {
		t.Fatalf("UpsertPrivate at %d cloaks allocates %d B and %d allocs per op, want <= %d B and <= 100",
			n, bytes, allocs, 64<<10)
	}
}
