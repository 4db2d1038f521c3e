package server

import (
	"sync"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/trace"
)

// memoCap bounds the entries one public memo holds.
const memoCap = 4096

// publicMemo memoizes candidate lists for private queries over ONE
// public tree. It exploits a structural property of Casper: cloaked
// regions are grid-aligned (one pyramid cell or a sibling pair), so
// different users — and the same user across small movements — issue
// literally identical cloaks, and the public table changes rarely.
//
// A memo belongs to the snapshot whose public tree it memoizes: a
// snapshot with a new public tree gets a new, empty memo, and one that
// only changes the private tree carries its predecessor's memo forward
// (see indexSnapshot). So an entry can never outlive the tree it was
// computed from, and a slow query storing into an old snapshot's memo
// cannot reach queries on newer ones. The mutex is held for one map
// operation, never across a computation; two concurrent misses on one
// key both compute, and the second store wins with an equal answer.
//
// The private table is deliberately not memoized: every location
// update mutates it, so entries would be dead on arrival.
type publicMemo struct {
	mu      sync.Mutex
	results map[cacheKey]privacyqp.Result
}

type cacheKey struct {
	region  geom.Rect
	filters int
	k       int // 1 for PrivateNN; >1 for PrivateKNN
}

func newPublicMemo() *publicMemo {
	return &publicMemo{results: make(map[cacheKey]privacyqp.Result)}
}

func (m *publicMemo) get(key cacheKey) (privacyqp.Result, bool) {
	m.mu.Lock()
	res, ok := m.results[key]
	m.mu.Unlock()
	return res, ok
}

// put stores res under key; when the memo is full, an arbitrary entry
// makes room.
func (m *publicMemo) put(key cacheKey, res privacyqp.Result) {
	m.mu.Lock()
	if len(m.results) >= memoCap {
		for k := range m.results {
			delete(m.results, k)
			break
		}
	}
	m.results[key] = res
	m.mu.Unlock()
}

// memoized serves key from snap's memo, or runs compute and stores its
// answer there; errors are not stored. It counts the hit or miss and
// records a "cache_lookup" span into tr when non-nil.
func (s *Server) memoized(snap *indexSnapshot, key cacheKey, tr *trace.Trace, compute func() (privacyqp.Result, error)) (privacyqp.Result, error) {
	sp := tr.StartSpan("cache_lookup")
	outcome := "hit"
	res, ok := snap.memo.get(key)
	var err error
	if ok {
		s.cacheHits.Add(1)
		cacheHits.Inc()
	} else {
		outcome = "miss"
		s.cacheMisses.Add(1)
		cacheMisses.Inc()
		if res, err = compute(); err == nil {
			snap.memo.put(key, res)
		}
	}
	if tr != nil {
		sp.End(trace.Str("outcome", outcome), trace.Int("candidates", int64(len(res.Candidates))))
	}
	return res, err
}
