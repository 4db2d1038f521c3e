package anonymizer

import (
	"fmt"
	"sync"

	"casper/internal/geom"
	"casper/internal/pyramid"
)

// table is the user lifecycle every backend shares (Sec. 4): the
// uid → {exact position, profile, backend slot} map behind one
// RWMutex, the profile checks and the duplicate- and unknown-user
// errors. A backend embeds a table and supplies only
// its spatial structure, as the hooks of spatial[S]; S is the slot the
// structure keeps per user (the leaf cell of the basic and cluster
// backends, the maintained node of the adaptive one, nothing for
// geoind).
//
// Cloaks and the other reads run in parallel under the read lock;
// registrations, location updates, deregistrations and profile changes
// take the write lock, and the hooks settle the structure (the
// adaptive backend's splits and merges included) before it is
// released, so every reader sees a settled structure.
type table[S any] struct {
	mu    sync.RWMutex
	name  string
	grid  pyramid.Grid
	users map[UserID]*entry[S]
	space spatial[S]
	// updates is the UpdateCost accounting of the backends that count
	// their own writes (all but basic, whose pyramid counts them).
	updates int64
}

// entry is one registered user's row of the table.
type entry[S any] struct {
	uid     UserID
	pos     geom.Point
	profile Profile
	slot    S
}

// spatial is a backend's spatial structure: the hooks the table calls
// under its lock. The mutating hooks run under the write lock after
// the table has written the row: add sees a new row, move the row's
// new pos (and gets the position it replaced), remove a row already
// gone from the map, reprofile the new profile. at and cloak run under
// at least the read lock.
type spatial[S any] interface {
	add(e *entry[S])
	move(e *entry[S], old geom.Point)
	remove(e *entry[S])
	reprofile(e *entry[S])
	// at returns the slot a point would occupy, for CloakAt.
	at(p geom.Point) S
	// cloak blurs position p in slot s under a valid profile.
	cloak(p geom.Point, s S, prof Profile) (CloakedRegion, error)
}

// init readies an embedded table for the backend space.
func (t *table[S]) init(name string, grid pyramid.Grid, space spatial[S]) {
	t.name, t.grid, t.space = name, grid, space
	t.users = make(map[UserID]*entry[S])
}

// lookup returns uid's row. The caller holds t.mu.
func (t *table[S]) lookup(uid UserID) (*entry[S], error) {
	if e, ok := t.users[uid]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownUser, uid)
}

// Name implements Anonymizer.
func (t *table[S]) Name() string { return t.name }

// Grid implements Anonymizer.
func (t *table[S]) Grid() pyramid.Grid { return t.grid }

// Register implements Anonymizer.
func (t *table[S]) Register(uid UserID, p geom.Point, prof Profile) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.users[uid]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateUser, uid)
	}
	e := &entry[S]{uid: uid, pos: p, profile: prof}
	t.users[uid] = e
	t.space.add(e)
	return nil
}

// Deregister implements Anonymizer.
func (t *table[S]) Deregister(uid UserID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, err := t.lookup(uid)
	if err != nil {
		return err
	}
	delete(t.users, uid)
	t.space.remove(e)
	return nil
}

// Update implements Anonymizer.
func (t *table[S]) Update(uid UserID, p geom.Point) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, err := t.lookup(uid)
	if err != nil {
		return err
	}
	old := e.pos
	e.pos = p
	t.space.move(e, old)
	return nil
}

// SetProfile implements Anonymizer.
func (t *table[S]) SetProfile(uid UserID, prof Profile) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, err := t.lookup(uid)
	if err != nil {
		return err
	}
	e.profile = prof
	t.space.reprofile(e)
	return nil
}

// Cloak implements Anonymizer.
func (t *table[S]) Cloak(uid UserID) (CloakedRegion, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, err := t.lookup(uid)
	if err != nil {
		return CloakedRegion{}, err
	}
	return t.space.cloak(e.pos, e.slot, e.profile)
}

// CloakAt implements Anonymizer.
func (t *table[S]) CloakAt(p geom.Point, prof Profile) (CloakedRegion, error) {
	if err := prof.Validate(); err != nil {
		return CloakedRegion{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.space.cloak(p, t.space.at(p), prof)
}

// ForEachUser implements Anonymizer. The walk holds the read lock, so
// each visited (position, profile) pair is internally consistent.
func (t *table[S]) ForEachUser(fn func(UserID, geom.Point, Profile) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for uid, e := range t.users {
		if !fn(uid, e.pos, e.profile) {
			return
		}
	}
}

// Users implements Anonymizer.
func (t *table[S]) Users() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.users)
}

// Profile returns the stored profile of a user.
func (t *table[S]) Profile(uid UserID) (Profile, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, err := t.lookup(uid)
	if err != nil {
		return Profile{}, err
	}
	return e.profile, nil
}

// Position implements Anonymizer.
func (t *table[S]) Position(uid UserID) (geom.Point, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, err := t.lookup(uid)
	if err != nil {
		return geom.Point{}, err
	}
	return e.pos, nil
}

// UpdateCost implements Anonymizer.
func (t *table[S]) UpdateCost() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.updates
}

// ResetUpdateCost implements Anonymizer.
func (t *table[S]) ResetUpdateCost() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.updates = 0
}
