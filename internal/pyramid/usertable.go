package pyramid

import "sync"

// UserTable is a hash table keyed by int64 identity (user ID or
// pseudonym) behind one RWMutex. It backs core's pseudonym table and
// the geoind backend's (uid → entry) table, the two identity tables no
// coarser lock already guards.
//
// The lock is leaf-level: no UserTable method calls out while holding
// it, so it can never participate in a lock-order cycle with the
// anonymizer locks or the server lock.
type UserTable[V any] struct {
	mu sync.RWMutex
	m  map[int64]V
}

// NewUserTable returns an empty table.
func NewUserTable[V any]() *UserTable[V] {
	return &UserTable[V]{m: make(map[int64]V)}
}

// Get returns the value stored under key.
func (t *UserTable[V]) Get(key int64) (V, bool) {
	t.mu.RLock()
	v, ok := t.m[key]
	t.mu.RUnlock()
	return v, ok
}

// Insert stores v under key if key is absent and reports whether it
// did (false means the key was already present and the table is
// unchanged).
func (t *UserTable[V]) Insert(key int64, v V) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.m[key]; exists {
		return false
	}
	t.m[key] = v
	return true
}

// Store stores v under key unconditionally.
func (t *UserTable[V]) Store(key int64, v V) {
	t.mu.Lock()
	t.m[key] = v
	t.mu.Unlock()
}

// Delete removes key and returns the value that was stored, if any.
func (t *UserTable[V]) Delete(key int64) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.m[key]
	if ok {
		delete(t.m, key)
	}
	return v, ok
}

// Len returns the number of stored keys.
func (t *UserTable[V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// Range calls fn for every entry until fn returns false. The table is
// snapshotted under its read lock before fn runs, so fn may call back
// into the table (including mutating it) without deadlocking; entries
// added or removed concurrently may or may not be visited.
func (t *UserTable[V]) Range(fn func(key int64, v V) bool) {
	t.mu.RLock()
	snap := make(map[int64]V, len(t.m))
	for k, v := range t.m {
		snap[k] = v
	}
	t.mu.RUnlock()
	for k, v := range snap {
		if !fn(k, v) {
			return
		}
	}
}
