package server

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// resident is the number of entries the memo holds.
func resident(m *publicMemo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.results)
}

// TestCacheHitDoesNotAllocate: serving a memoized NNPublic answer takes
// the lock and looks up — no allocation on the hit path.
func TestCacheHitDoesNotAllocate(t *testing.T) {
	s := loadedServer(rand.New(rand.NewSource(9)), 300, 0)
	cloak := geom.R(100, 100, 200, 200)
	opt := privacyqp.DefaultOptions()
	if _, err := s.NNPublic(cloak, opt); err != nil {
		t.Fatal(err)
	}
	h0, _ := s.CacheStats()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.NNPublic(cloak, opt); err != nil {
			t.Fatal(err)
		}
	})
	if h1, _ := s.CacheStats(); h1 == h0 {
		t.Fatal("repeated NNPublic did not hit the cache")
	}
	if allocs != 0 {
		t.Fatalf("NNPublic cache hit allocates %v objects, want 0", allocs)
	}
}

// TestMemoBoundedAndExact: past memoCap distinct cloaks the memo stays
// within its cap, and every answer — fresh, evicted and recomputed, or
// served from the memo — equals the uncached answer: Algorithm 2 cut
// by the exact step (privacyqp.ExactPublicNNInto).
func TestMemoBoundedAndExact(t *testing.T) {
	s := loadedServer(rand.New(rand.NewSource(10)), 300, 0)
	snap := s.snap.Load()
	opt := privacyqp.DefaultOptions()
	cloak := func(i int) geom.Rect {
		x, y := float64(i%80)*12, float64(i/80)*12
		return geom.R(x, y, x+10, y+10)
	}
	check := func(i int) {
		got, err := s.NNPublic(cloak(i), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := privacyqp.ExactPublicNNInto(snap.public, cloak(i), opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cloak %d: memoized answer differs from the uncached one", i)
		}
	}
	n := memoCap + 100
	for i := 0; i < n; i++ {
		check(i)
		if got := resident(snap.memo); got > memoCap {
			t.Fatalf("memo grew to %d entries, cap %d", got, memoCap)
		}
	}
	// Revisit every cloak: some are still memoized, some were evicted.
	for i := 0; i < n; i++ {
		check(i)
	}
	if hits, _ := s.CacheStats(); hits == 0 {
		t.Fatal("no revisit hit the memo")
	}
}

// TestMemoOldSnapshotStoreNotServed: a query that loaded its snapshot
// before an AddPublic and stores its answer afterwards stores into the
// old snapshot's memo, so queries after the write never see it.
func TestMemoOldSnapshotStoreNotServed(t *testing.T) {
	s := loadedServer(rand.New(rand.NewSource(11)), 300, 0)
	cloak := geom.R(100, 100, 200, 200)
	opt := privacyqp.DefaultOptions()
	old := s.snap.Load()
	if err := s.AddPublic(PublicObject{ID: 9999, Pos: geom.Pt(150, 150)}); err != nil {
		t.Fatal(err)
	}
	key := cacheKey{region: cloak, filters: opt.Filters, k: 1}
	stale := privacyqp.Result{Candidates: []rtree.Item{{ID: -1}}}
	if _, err := s.memoized(old, key, nil, func() (privacyqp.Result, error) { return stale, nil }); err != nil {
		t.Fatal(err)
	}
	_, m0 := s.CacheStats()
	res, err := s.NNPublic(cloak, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, m1 := s.CacheStats(); m1 != m0+1 {
		t.Fatal("query after AddPublic hit an entry stored through the old snapshot")
	}
	found := false
	for _, c := range res.Candidates {
		if c.ID == -1 {
			t.Fatal("stale answer served after AddPublic")
		}
		found = found || c.ID == 9999
	}
	if !found {
		t.Fatal("answer after AddPublic misses the added object")
	}
}

// TestMemoErrorNotStored: a failing computation leaves nothing behind,
// so the next identical query computes again.
func TestMemoErrorNotStored(t *testing.T) {
	s := loadedServer(rand.New(rand.NewSource(12)), 300, 0)
	cloak := geom.R(100, 100, 200, 200)
	bad := privacyqp.Options{Filters: 3}
	for i := 1; i <= 2; i++ {
		if _, err := s.NNPublic(cloak, bad); err == nil {
			t.Fatal("Filters: 3 accepted")
		}
		if n := resident(s.snap.Load().memo); n != 0 {
			t.Fatalf("failed query stored %d entries", n)
		}
		if hits, misses := s.CacheStats(); hits != 0 || misses != int64(i) {
			t.Fatalf("after %d failed queries: hits=%d misses=%d, want 0 and %d", i, hits, misses, i)
		}
	}
}

// TestConcurrentMemoUnderPublicChurn: readers look up through the
// current snapshot and through snapshots they held across public
// writes while a writer churns AddPublic/RemovePublic; every answer
// must be the one the looked-up snapshot's own public tree gives.
func TestConcurrentMemoUnderPublicChurn(t *testing.T) {
	s := loadedServer(rand.New(rand.NewSource(13)), 300, 0)
	opt := privacyqp.DefaultOptions()
	cloaks := []geom.Rect{
		geom.R(0, 0, 125, 125), geom.R(125, 0, 250, 125),
		geom.R(500, 500, 625, 625), geom.R(750, 250, 875, 375),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(14))
		for id := int64(1000); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			o := PublicObject{ID: id, Pos: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
			if err := s.AddPublic(o); err != nil {
				t.Errorf("add public: %v", err)
				return
			}
			if err := s.RemovePublic(id); err != nil {
				t.Errorf("remove public: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			held := s.snap.Load()
			for i := 0; i < 400; i++ {
				snap := s.snap.Load()
				if i%2 == 1 {
					snap = held // an older snapshot, outlived by writes
				}
				if i%50 == 0 {
					held = s.snap.Load()
				}
				cloak := cloaks[rng.Intn(len(cloaks))]
				compute := func() (privacyqp.Result, error) {
					return privacyqp.ExactPublicNNInto(snap.public, cloak, opt, nil)
				}
				key := cacheKey{region: cloak, filters: opt.Filters, k: 1}
				got, err := s.memoized(snap, key, nil, compute)
				if err != nil {
					t.Errorf("memoized: %v", err)
					return
				}
				want, _ := compute()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("memo served an answer from another public tree for %v", cloak)
					return
				}
				if _, err := s.NNPublic(cloak, opt); err != nil {
					t.Errorf("NNPublic: %v", err)
					return
				}
			}
		}(int64(20 + r))
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if hits, _ := s.CacheStats(); hits == 0 {
		t.Fatal("no lookup hit the memo")
	}
}
