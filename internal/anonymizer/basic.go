package anonymizer

import (
	"fmt"
	"sync"
	"time"

	"casper/internal/geom"
	"casper/internal/pyramid"
)

// Basic is the basic location anonymizer (Sec. 4.1): a complete grid
// pyramid with a user counter in every cell of every level, plus a
// hash table mapping each registered user to (profile, lowest-level
// cell). Location updates adjust counters along the paths from the old
// and new leaf cells to their lowest common ancestor; cloaking runs
// Algorithm 1 starting from the user's lowest-level cell.
//
// Basic is safe for concurrent use: cloaking and other read-only
// operations proceed in parallel under a read lock, while mutations
// (register, deregister, update, profile changes) serialize behind the
// write lock.
type Basic struct {
	mu    sync.RWMutex
	grid  pyramid.Grid
	pyr   *pyramid.Complete
	users map[UserID]*basicEntry
}

type basicEntry struct {
	profile Profile
	pos     geom.Point
	leaf    pyramid.CellID
}

// NewBasic builds a basic anonymizer over a square universe with the
// given pyramid height (the paper's experiments use 9 levels over
// Hennepin County).
func NewBasic(universe geom.Rect, levels int) *Basic {
	grid := pyramid.NewGrid(universe, levels)
	return &Basic{
		grid:  grid,
		pyr:   pyramid.NewComplete(grid),
		users: make(map[UserID]*basicEntry),
	}
}

// Register implements Anonymizer.
func (b *Basic) Register(uid UserID, p geom.Point, prof Profile) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.users[uid]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateUser, uid)
	}
	b.users[uid] = &basicEntry{profile: prof, pos: p, leaf: b.pyr.Add(p)}
	return nil
}

// Deregister implements Anonymizer.
func (b *Basic) Deregister(uid UserID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.users[uid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	b.pyr.RemoveAt(e.leaf)
	delete(b.users, uid)
	return nil
}

// Update implements Anonymizer.
func (b *Basic) Update(uid UserID, p geom.Point) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.users[uid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	e.leaf, _ = b.pyr.Move(e.leaf, p)
	e.pos = p
	return nil
}

// SetProfile implements Anonymizer. The complete pyramid's shape does
// not depend on profiles, so this is a pure metadata change.
func (b *Basic) SetProfile(uid UserID, prof Profile) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.users[uid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	e.profile = prof
	return nil
}

// Cloak implements Anonymizer.
func (b *Basic) Cloak(uid UserID) (CloakedRegion, error) {
	start := time.Now()
	b.mu.RLock()
	e, ok := b.users[uid]
	var cr CloakedRegion
	var err error
	if !ok {
		err = fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	} else {
		cr, err = bottomUpCloak(b.pyr, b.grid, e.leaf, e.profile, CloakOpts{})
	}
	b.mu.RUnlock()
	basicCloakMetrics.observe(start, cr, err)
	return cr, err
}

// CloakAt implements Anonymizer.
func (b *Basic) CloakAt(p geom.Point, prof Profile) (CloakedRegion, error) {
	start := time.Now()
	cr, err := b.CloakAtOpt(p, prof, CloakOpts{})
	basicCloakMetrics.observe(start, cr, err)
	return cr, err
}

// CloakAtOpt cloaks an arbitrary point under a profile with explicit
// ablation options.
func (b *Basic) CloakAtOpt(p geom.Point, prof Profile, opts CloakOpts) (CloakedRegion, error) {
	leaf := b.grid.LeafAt(p)
	b.mu.RLock()
	defer b.mu.RUnlock()
	return bottomUpCloak(b.pyr, b.grid, leaf, prof, opts)
}

// Name implements Anonymizer.
func (b *Basic) Name() string { return "basic" }

// ForEachUser implements Anonymizer. The walk holds the read lock, so
// each visited (position, profile) pair is internally consistent.
func (b *Basic) ForEachUser(fn func(UserID, geom.Point, Profile) bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for uid, e := range b.users {
		if !fn(uid, e.pos, e.profile) {
			return
		}
	}
}

// Users implements Anonymizer.
func (b *Basic) Users() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.users)
}

// Grid implements Anonymizer.
func (b *Basic) Grid() pyramid.Grid { return b.grid }

// UpdateCost implements Anonymizer.
func (b *Basic) UpdateCost() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.pyr.Updates()
}

// ResetUpdateCost implements Anonymizer.
func (b *Basic) ResetUpdateCost() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pyr.ResetUpdates()
}

// Profile returns the stored profile of a user (for tests and the
// protocol layer).
func (b *Basic) Profile(uid UserID) (Profile, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.users[uid]
	if !ok {
		return Profile{}, fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	return e.profile, nil
}

// Position returns the stored exact position of a user. Only the
// anonymizer (the trusted party) may see this.
func (b *Basic) Position(uid UserID) (geom.Point, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.users[uid]
	if !ok {
		return geom.Point{}, fmt.Errorf("%w: %d", ErrUnknownUser, uid)
	}
	return e.pos, nil
}

// CheckConsistency verifies internal invariants (tests only).
func (b *Basic) CheckConsistency() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.pyr.CheckConsistency(); err != nil {
		return err
	}
	if b.pyr.Total() != len(b.users) {
		return fmt.Errorf("pyramid total %d != users %d", b.pyr.Total(), len(b.users))
	}
	for uid, e := range b.users {
		if got := b.grid.LeafAt(e.pos); got != e.leaf {
			return fmt.Errorf("user %d leaf %v != recomputed %v", uid, e.leaf, got)
		}
	}
	return nil
}
