package anonymizer

import (
	"fmt"

	"casper/internal/geom"
	"casper/internal/pyramid"
)

// Basic is the basic location anonymizer (Sec. 4.1): a complete grid
// pyramid with a user counter in every cell of every level, behind the
// user table whose slot is each user's lowest-level cell. Location
// updates adjust counters along the paths from the old and new leaf
// cells to their lowest common ancestor; cloaking runs Algorithm 1
// starting from the user's lowest-level cell.
type Basic struct {
	table[pyramid.CellID]
	pyr *pyramid.Complete
}

// cellEntry is a user row whose slot is a leaf cell (basic, cluster).
type cellEntry = entry[pyramid.CellID]

// NewBasic builds a basic anonymizer over a square universe with the
// given pyramid height (the paper's experiments use 9 levels over
// Hennepin County).
func NewBasic(universe geom.Rect, levels int) *Basic {
	grid := pyramid.NewGrid(universe, levels)
	b := &Basic{pyr: pyramid.NewComplete(grid)}
	b.init("basic", grid, b)
	return b
}

func (b *Basic) add(e *cellEntry)                { e.slot = b.pyr.Add(e.pos) }
func (b *Basic) move(e *cellEntry, _ geom.Point) { e.slot, _ = b.pyr.Move(e.slot, e.pos) }
func (b *Basic) remove(e *cellEntry)             { b.pyr.RemoveAt(e.slot) }

// reprofile is a no-op: the complete pyramid's shape does not depend
// on profiles.
func (b *Basic) reprofile(*cellEntry) {}

func (b *Basic) at(p geom.Point) pyramid.CellID { return b.grid.LeafAt(p) }

func (b *Basic) cloak(_ geom.Point, leaf pyramid.CellID, prof Profile) (CloakedRegion, error) {
	return bottomUpCloak(b.pyr, b.grid, leaf, prof, CloakOpts{})
}

// CloakAtOpt cloaks an arbitrary point under a profile with explicit
// ablation options.
func (b *Basic) CloakAtOpt(p geom.Point, prof Profile, opts CloakOpts) (CloakedRegion, error) {
	if err := prof.Validate(); err != nil {
		return CloakedRegion{}, err
	}
	leaf := b.grid.LeafAt(p)
	b.mu.RLock()
	defer b.mu.RUnlock()
	return bottomUpCloak(b.pyr, b.grid, leaf, prof, opts)
}

// UpdateCost implements Anonymizer: the pyramid's counter writes.
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
		if got := b.grid.LeafAt(e.pos); got != e.slot {
			return fmt.Errorf("user %d leaf %v != recomputed %v", uid, e.slot, got)
		}
	}
	return nil
}
