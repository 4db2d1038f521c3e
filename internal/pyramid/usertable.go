package pyramid

import "sync"

// userTableShards is the shard fan-out of UserTable. A small power of
// two keeps the modulo a mask while spreading the per-user metadata
// writes of a busy anonymizer across enough locks that they stop
// contending; uid→shard assignment uses a 64-bit mix so sequential
// user IDs (the common workload-generator pattern) don't all land in
// the same shard.
const userTableShards = 16

// UserTable is a hash table keyed by int64 identity (user ID or
// pseudonym), sharded userTableShards ways by key hash with one
// RWMutex per shard. It backs core's pseudonym table and the geoind
// backend's (uid → entry) table, the two identity tables no coarser
// lock already guards.
//
// Shard locks are leaf-level: no UserTable method calls out while
// holding one, so they can never participate in a lock-order cycle
// with the anonymizer locks or the server lock.
type UserTable[V any] struct {
	shards [userTableShards]userTableShard[V]
}

type userTableShard[V any] struct {
	mu sync.RWMutex
	m  map[int64]V
}

// NewUserTable returns an empty table.
func NewUserTable[V any]() *UserTable[V] {
	t := &UserTable[V]{}
	for i := range t.shards {
		t.shards[i].m = make(map[int64]V)
	}
	return t
}

func (t *UserTable[V]) shard(key int64) *userTableShard[V] {
	// splitmix64 finalizer: cheap, and avalanche-mixes the low bits we
	// mask with.
	h := uint64(key)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &t.shards[h&(userTableShards-1)]
}

// Get returns the value stored under key.
func (t *UserTable[V]) Get(key int64) (V, bool) {
	s := t.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// Insert stores v under key if key is absent and reports whether it
// did (false means the key was already present and the table is
// unchanged).
func (t *UserTable[V]) Insert(key int64, v V) bool {
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[key]; exists {
		return false
	}
	s.m[key] = v
	return true
}

// Store stores v under key unconditionally.
func (t *UserTable[V]) Store(key int64, v V) {
	s := t.shard(key)
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// Delete removes key and returns the value that was stored, if any.
func (t *UserTable[V]) Delete(key int64) (V, bool) {
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if ok {
		delete(s.m, key)
	}
	return v, ok
}

// Len returns the number of stored keys. With concurrent writers the
// result is a point-in-time approximation (shards are counted one at
// a time).
func (t *UserTable[V]) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. Each shard is
// snapshotted under its read lock before fn runs, so fn may call back
// into the table (including mutating it) without deadlocking; entries
// added or removed concurrently may or may not be visited.
func (t *UserTable[V]) Range(fn func(key int64, v V) bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		snap := make(map[int64]V, len(s.m))
		for k, v := range s.m {
			snap[k] = v
		}
		s.mu.RUnlock()
		for k, v := range snap {
			if !fn(k, v) {
				return
			}
		}
	}
}
