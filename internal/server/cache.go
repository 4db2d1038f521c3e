package server

import (
	"sync"
	"sync/atomic"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/trace"
)

// queryCache memoizes candidate lists for private queries over the
// PUBLIC table. It exploits a structural property of Casper: cloaked
// regions are grid-aligned (one pyramid cell or a sibling pair), so
// different users — and the same user across small movements — issue
// literally identical cloaks, and the public table changes rarely.
// The cache holds entries for one public-table version only: the first
// lookup at a newer version clears the map, so stale entries are gone
// the moment they go stale.
//
// One mutex guards the version and the map; it is held for a map
// operation, never across a computation. Misses are single-flight:
// the first caller for a cold key installs an entry with an open ready
// channel, computes outside the lock and closes the channel; everyone
// else waits on that channel instead of recomputing. Errors are never
// cached — a failed leader deletes its entry and each waiter computes
// independently.
//
// The private table is deliberately not cached: every location update
// mutates it, so entries would be dead on arrival.
type queryCache struct {
	mu      sync.Mutex
	version int64
	entries map[cacheKey]*cacheEntry
	maxSize int

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheKey struct {
	region  geom.Rect
	filters int
	k       int // 1 for PrivateNN; >1 for PrivateKNN
}

// cacheEntry is one published or in-flight computation. ready is
// closed once res/err are valid; an entry whose channel is still open
// is being computed by its leader.
type cacheEntry struct {
	ready chan struct{}
	res   privacyqp.Result
	err   error
}

func newQueryCache(maxSize int) *queryCache {
	return &queryCache{maxSize: maxSize, entries: make(map[cacheKey]*cacheEntry)}
}

// do returns the result for key at the given table version, computing
// it at most once across all concurrent callers at the cache's current
// version: the first caller to install the entry runs compute and fills
// it; everyone else waits on the entry's ready channel and shares the
// result. A caller pinned to an older version than the cache's computes
// without caching. tr, when non-nil, receives a "singleflight_wait"
// span if this caller had to block on another caller's in-flight
// computation.
func (c *queryCache) do(key cacheKey, version int64, tr *trace.Trace, compute func() (privacyqp.Result, error)) (privacyqp.Result, error) {
	c.mu.Lock()
	if version > c.version {
		c.version = version
		clear(c.entries)
	}
	if version < c.version {
		c.mu.Unlock()
		return c.miss(compute)
	}
	if e := c.entries[key]; e != nil {
		c.mu.Unlock()
		select {
		case <-e.ready:
		default:
			// The leader is still computing: this caller will actually
			// block, which is worth a span of its own.
			wsp := tr.StartSpan("singleflight_wait")
			<-e.ready
			wsp.End()
		}
		if e.err != nil {
			// The leader failed. Errors are not cached (the leader
			// removes the entry); compute independently rather than
			// serving a stale failure.
			return c.miss(compute)
		}
		c.hits.Add(1)
		cacheHits.Inc()
		return e.res, nil
	}
	// Full: drop completed entries in map order until there is room.
	// In-flight entries stay, so a leader's slot is never pulled out
	// from under its waiters.
	for k, old := range c.entries {
		if len(c.entries) < c.maxSize {
			break
		}
		select {
		case <-old.ready:
			delete(c.entries, k)
		default:
		}
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	// This caller is the leader for (key, version).
	e.res, e.err = c.miss(compute)
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.res, e.err
}

// miss counts one computation and runs it.
func (c *queryCache) miss(compute func() (privacyqp.Result, error)) (privacyqp.Result, error) {
	c.misses.Add(1)
	cacheMisses.Inc()
	return compute()
}

// stats returns (hits, misses).
func (c *queryCache) stats() (int64, int64) {
	return c.hits.Load(), c.misses.Load()
}
