package server

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

func cacheKeyN(i int) cacheKey {
	f := float64(i)
	return cacheKey{region: geom.R(f, f, f+1, f+1), filters: 4, k: 1}
}

// lookup runs c.do with a compute that returns a one-candidate result
// tagged id, and reports whether the compute ran (a miss).
func lookup(c *queryCache, key cacheKey, version, id int64) (privacyqp.Result, bool) {
	computed := false
	res, _ := c.do(key, version, nil, func() (privacyqp.Result, error) {
		computed = true
		return privacyqp.Result{Candidates: []rtree.Item{{ID: id}}}, nil
	})
	return res, computed
}

// resident is the number of entries the cache holds.
func resident(c *queryCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// TestCachePurgesStaleVersionsFirst: when the cache is full, entries
// stamped with an outdated table version are evicted en masse before
// any current entry is sacrificed.
func TestCachePurgesStaleVersionsFirst(t *testing.T) {
	c := newQueryCache(8)
	// Fill to capacity at version 1.
	for i := 0; i < 8; i++ {
		lookup(c, cacheKeyN(i), 1, 1)
	}
	// The table changed; insert three entries at version 2. The first
	// insert must purge all eight stale entries, so the fresh ones
	// coexist without evicting each other.
	for i := 100; i < 103; i++ {
		lookup(c, cacheKeyN(i), 2, 2)
	}
	for i := 100; i < 103; i++ {
		if _, miss := lookup(c, cacheKeyN(i), 2, 2); miss {
			t.Fatalf("fresh entry %d evicted while stale entries existed", i)
		}
	}
	if got := resident(c); got != 3 {
		t.Fatalf("cache holds %d entries, want 3 (stale purged)", got)
	}
	for i := 0; i < 8; i++ {
		if res, miss := lookup(c, cacheKeyN(i), 2, 2); !miss || res.Candidates[0].ID != 2 {
			t.Fatalf("stale entry %d still serving", i)
		}
	}
}

// TestCacheEvictsWhenAllCurrent: with every entry at the live version,
// a miss still makes room instead of growing the cache unboundedly.
func TestCacheEvictsWhenAllCurrent(t *testing.T) {
	c := newQueryCache(4)
	for i := 0; i < 10; i++ {
		lookup(c, cacheKeyN(i), 7, 0)
		if got := resident(c); got > 4 {
			t.Fatalf("cache grew to %d entries, max 4", got)
		}
	}
	// The newest entry always survives its own insert.
	if _, miss := lookup(c, cacheKeyN(9), 7, 0); miss {
		t.Fatal("just-inserted entry missing")
	}
}

// TestCacheDropsStaleEntriesOnVersionBump: the first lookup at a newer
// table version drops every entry of the old one, full or not, so a
// public-table change leaves no stale entries resident.
func TestCacheDropsStaleEntriesOnVersionBump(t *testing.T) {
	c := newQueryCache(64)
	for i := 0; i < 8; i++ {
		lookup(c, cacheKeyN(i), 1, 1)
	}
	lookup(c, cacheKeyN(100), 2, 2)
	if got := resident(c); got != 1 {
		t.Fatalf("cache holds %d entries after a version bump, want 1", got)
	}
}

// TestCacheOlderSnapshotDoesNotDisplace: a query pinned to an older
// public snapshot computes its own answer without caching it, so the
// current version's entry keeps serving.
func TestCacheOlderSnapshotDoesNotDisplace(t *testing.T) {
	c := newQueryCache(64)
	key := cacheKeyN(0)
	lookup(c, key, 2, 2)
	res, miss := lookup(c, key, 1, 1)
	if !miss || res.Candidates[0].ID != 1 {
		t.Fatalf("version-1 lookup served %+v (miss=%v), want its own result", res, miss)
	}
	res, miss = lookup(c, key, 2, 3)
	if miss || res.Candidates[0].ID != 2 {
		t.Fatalf("version-2 entry displaced: %+v (miss=%v)", res, miss)
	}
}

// TestCacheHitDoesNotAllocate: serving a cached NNPublic answer takes
// the lock, looks up and receives from a closed channel — no
// allocation on the hit path.
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

// TestConcurrentColdMissSingleFlight: N goroutines issuing the same
// cold key concurrently must trigger exactly one underlying
// computation; the other N-1 wait for the leader and share its result.
func TestConcurrentColdMissSingleFlight(t *testing.T) {
	c := newQueryCache(64)
	key := cacheKeyN(0)
	want := privacyqp.Result{Candidates: []rtree.Item{{ID: 42}}}

	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (privacyqp.Result, error) {
		computes.Add(1)
		<-release // hold every would-be leader until all callers queued
		return want, nil
	}

	const n = 32
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			started.Done()
			res, err := c.do(key, 1, nil, compute)
			if err != nil {
				t.Errorf("do: %v", err)
			}
			if len(res.Candidates) != 1 || res.Candidates[0].ID != 42 {
				t.Errorf("res = %+v", res)
			}
		}()
	}
	started.Wait()
	close(release)
	done.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for one cold key, want 1", got)
	}
	hits, misses := c.stats()
	if misses != 1 || hits != n-1 {
		t.Fatalf("stats = (%d hits, %d misses), want (%d, 1)", hits, misses, n-1)
	}
}

// TestSingleFlightErrorNotCached: a failed leader must not leave a
// poisoned entry behind — the next call recomputes.
func TestSingleFlightErrorNotCached(t *testing.T) {
	c := newQueryCache(64)
	key := cacheKeyN(0)
	var computes atomic.Int64
	boom := func() (privacyqp.Result, error) {
		computes.Add(1)
		return privacyqp.Result{}, privacyqp.ErrNoTargets
	}
	if _, err := c.do(key, 1, nil, boom); err == nil {
		t.Fatal("expected error")
	}
	if n := resident(c); n != 0 {
		t.Fatalf("error left %d entries cached", n)
	}
	ok := func() (privacyqp.Result, error) {
		computes.Add(1)
		return privacyqp.Result{Candidates: []rtree.Item{{ID: 1}}}, nil
	}
	res, err := c.do(key, 1, nil, ok)
	if err != nil || len(res.Candidates) != 1 {
		t.Fatalf("recompute after error: %v %+v", err, res)
	}
	if computes.Load() != 2 {
		t.Fatalf("computes = %d, want 2", computes.Load())
	}
}

// TestSingleFlightStaleVersionReplaced: a caller at a newer table
// version replaces the stale entry and becomes the new leader.
func TestSingleFlightStaleVersionReplaced(t *testing.T) {
	c := newQueryCache(64)
	key := cacheKeyN(0)
	mk := func(id int64) func() (privacyqp.Result, error) {
		return func() (privacyqp.Result, error) {
			return privacyqp.Result{Candidates: []rtree.Item{{ID: id}}}, nil
		}
	}
	if res, _ := c.do(key, 1, nil, mk(1)); res.Candidates[0].ID != 1 {
		t.Fatalf("v1 fill: %+v", res)
	}
	// Same key at version 2: the v1 entry must not serve.
	if res, _ := c.do(key, 2, nil, mk(2)); res.Candidates[0].ID != 2 {
		t.Fatalf("v2 served stale result: %+v", res)
	}
	// And the replacement is now cached at v2.
	if res, miss := lookup(c, key, 2, 3); miss || res.Candidates[0].ID != 2 {
		t.Fatalf("v2 entry missing: miss=%v %+v", miss, res)
	}
	if n := resident(c); n != 1 {
		t.Fatalf("len = %d, want 1 (replacement, not addition)", n)
	}
}

// TestCacheVersionedGet documents the exact-version contract the purge
// relies on: an entry filled at version v misses at any other version.
func TestCacheVersionedGet(t *testing.T) {
	c := newQueryCache(4)
	key := cacheKeyN(0)
	lookup(c, key, 3, 3)
	if _, miss := lookup(c, key, 2, 2); !miss {
		t.Fatal("version-3 entry hit at version 2")
	}
	if _, miss := lookup(c, key, 3, 3); miss {
		t.Fatal("entry missing at its own version")
	}
	if _, miss := lookup(c, key, 4, 4); !miss {
		t.Fatal("version-3 entry hit at version 4")
	}
	hits, misses := c.stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats = (%d, %d), want (1, 3)", hits, misses)
	}
}
