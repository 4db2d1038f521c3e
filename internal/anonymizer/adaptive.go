package anonymizer

import (
	"fmt"

	"casper/internal/geom"
	"casper/internal/pyramid"
)

// Adaptive is the adaptive location anonymizer (Sec. 4.2): an
// incomplete pyramid (Aref & Samet) that maintains grid cells only
// down to the levels that can actually serve some registered user's
// privacy profile. The structure is a quadtree whose leaves are the
// "lowest maintained cells"; cells split when a user in them could be
// satisfied one level deeper, and four sibling cells merge when no
// user in them can be satisfied at their level. Each user's table
// slot is her maintained leaf.
//
// Cloaking runs the same Algorithm 1 as the basic anonymizer but
// starts from the user's lowest maintained cell instead of the lowest
// pyramid level, which removes most (often all) of the upward
// recursion. During the upward walk every cell Algorithm 1 inspects —
// maintained ancestors and their siblings — exists as a node, because
// splits always create all four children of a cell.
//
// Maintenance is eager: under the table's write lock each mutation
// runs the merge check on the cell a user left, then the split check
// on the cell she is in, so every reader sees the split/merge fixed
// point.
type Adaptive struct {
	table[*aNode]
	root *aNode
}

// aNode is one maintained pyramid cell. children is nil for a
// maintained leaf, which then owns the users located inside it.
type aNode struct {
	cell     pyramid.CellID
	parent   *aNode
	count    int
	children *[4]*aNode
	users    map[UserID]*aEntry
}

// aEntry is a user row whose slot is her maintained leaf.
type aEntry = entry[*aNode]

// NewAdaptive builds an adaptive anonymizer over a square universe
// with the given maximum pyramid height.
func NewAdaptive(universe geom.Rect, levels int) *Adaptive {
	a := &Adaptive{root: &aNode{cell: pyramid.Root(), users: make(map[UserID]*aEntry)}}
	a.init("adaptive", pyramid.NewGrid(universe, levels), a)
	return a
}

// childIndex returns which of a node's four children (in
// pyramid.CellID.Children order) contains the given descendant cell.
func childIndex(parent pyramid.CellID, descendant pyramid.CellID) int {
	c := descendant.AncestorAt(parent.Level + 1)
	return (c.Y&1)<<1 | (c.X & 1)
}

// at descends to the maintained leaf containing p.
func (a *Adaptive) at(p geom.Point) *aNode {
	target := a.grid.LeafAt(p)
	n := a.root
	for n.children != nil {
		if n.cell.Level == target.Level {
			// Already at the lowest pyramid level; cannot descend.
			break
		}
		n = n.children[childIndex(n.cell, target)]
	}
	return n
}

// add places a new user in her maintained leaf, counting her on the
// path to the root, and splits the leaf if she justifies it.
func (a *Adaptive) add(e *aEntry) {
	leaf := a.at(e.pos)
	e.slot = leaf
	leaf.users[e.uid] = e
	for n := leaf; n != nil; n = n.parent {
		n.count++
		a.updates++
	}
	a.maybeSplit(leaf)
}

// remove uncounts a departed user and merges what she leaves behind.
func (a *Adaptive) remove(e *aEntry) {
	leaf := e.slot
	delete(leaf.users, e.uid)
	for n := leaf; n != nil; n = n.parent {
		n.count--
		a.updates++
	}
	a.maybeMerge(leaf.parent)
}

// move re-homes a user after a location update from position old.
func (a *Adaptive) move(e *aEntry, old geom.Point) {
	oldLeaf := e.slot
	target := a.grid.LeafAt(e.pos)
	if oldLeaf.cell.ContainsCell(target) {
		// Still inside the same maintained cell: no counter changes.
		// Only a move into another child quadrant changes the child
		// counts the split criterion reads; a leaf at the lowest level
		// has no children to split into.
		if oldLeaf.cell.Level < a.grid.LowestLevel() &&
			childIndex(oldLeaf.cell, target) != childIndex(oldLeaf.cell, a.grid.LeafAt(old)) {
			a.maybeSplit(oldLeaf)
		}
		return
	}
	// Remove from the old leaf and walk up, decrementing, until the
	// lowest common ancestor (the first maintained cell containing the
	// new position).
	delete(oldLeaf.users, e.uid)
	n := oldLeaf
	for !n.cell.ContainsCell(target) {
		n.count--
		a.updates++
		n = n.parent
	}
	// Descend from the LCA to the maintained leaf for p, incrementing.
	for n.children != nil && n.cell.Level < target.Level {
		n = n.children[childIndex(n.cell, target)]
		n.count++
		a.updates++
	}
	e.slot = n
	n.users[e.uid] = e
	a.maybeMerge(oldLeaf.parent)
	a.maybeSplit(n)
}

// reprofile restructures after a profile change: a more relaxed
// profile can justify splitting the user's cell, a stricter one can
// allow merging.
func (a *Adaptive) reprofile(e *aEntry) {
	leaf := e.slot
	a.maybeMerge(leaf.parent)
	a.maybeSplit(leaf)
}

// cloak is Algorithm 1 running directly on the incomplete pyramid's
// node structure, from node n: counts and sibling neighbors are O(1)
// pointer lookups instead of root-to-cell descents, which is where the
// adaptive anonymizer's cloaking-time advantage comes from. The
// neighbor step is the same neighborMerge the basic anonymizer uses.
func (a *Adaptive) cloak(_ geom.Point, n *aNode, prof Profile) (CloakedRegion, error) {
	steps := 0
	for {
		area := a.grid.CellArea(n.cell.Level)
		if n.count >= prof.K && area >= prof.AMin {
			return CloakedRegion{
				Region:     a.grid.CellRect(n.cell),
				Level:      n.cell.Level,
				KFound:     n.count,
				KRequested: prof.K,
				StepsUp:    steps,
			}, nil
		}
		if n.parent == nil {
			return CloakedRegion{}, unsatisfiable(prof, n.count, area)
		}
		// Sibling index within the parent: bit 0 is the X parity, bit 1
		// the Y parity, so the horizontal neighbor flips bit 0 and the
		// vertical neighbor flips bit 1.
		idx := (n.cell.Y&1)<<1 | (n.cell.X & 1)
		sibH := n.parent.children[idx^1]
		sibV := n.parent.children[idx^2]
		nH, nV := n.count+sibH.count, n.count+sibV.count
		if horizontal, ok := neighborMerge(nH, nV, area, prof); ok {
			with, kFound := sibV, nV
			if horizontal {
				with, kFound = sibH, nH
			}
			return CloakedRegion{
				Region:     a.grid.CellRect(n.cell).Union(a.grid.CellRect(with.cell)),
				Level:      n.cell.Level,
				KFound:     kFound,
				KRequested: prof.K,
				StepsUp:    steps,
			}, nil
		}
		n = n.parent
		steps++
	}
}

// MaintainedCells returns the number of maintained cells (nodes); an
// efficiency diagnostic contrasted with the complete pyramid's 4^H.
func (a *Adaptive) MaintainedCells() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := 0
	var walk func(*aNode)
	walk = func(nd *aNode) {
		n++
		if nd.children != nil {
			for _, c := range nd.children {
				walk(c)
			}
		}
	}
	walk(a.root)
	return n
}

// satisfiedAt reports whether a user with profile prof would be
// satisfied by a cell at the given level holding cnt users.
func (a *Adaptive) satisfiedAt(prof Profile, level, cnt int) bool {
	return a.grid.CellArea(level) >= prof.AMin && cnt >= prof.K
}

// splitCounts returns how many of leaf's users fall in each of its
// four child cells, and whether at least one of them would have her
// profile satisfied by the child cell that would contain her (the
// paper's split criterion, made precise).
func (a *Adaptive) splitCounts(leaf *aNode) (counts [4]int, split bool) {
	for _, e := range leaf.users {
		counts[childIndex(leaf.cell, a.grid.LeafAt(e.pos))]++
	}
	childLevel := leaf.cell.Level + 1
	for _, e := range leaf.users {
		if a.satisfiedAt(e.profile, childLevel, counts[childIndex(leaf.cell, a.grid.LeafAt(e.pos))]) {
			return counts, true
		}
	}
	return counts, false
}

// mergeable reports whether parent's four children are all leaves and
// no user in them is satisfied at the child level (the paper's merge
// criterion).
func (a *Adaptive) mergeable(parent *aNode) bool {
	for _, c := range parent.children {
		if c.children != nil {
			return false // an occupied subtree below; nothing to merge here
		}
	}
	childLevel := parent.cell.Level + 1
	for _, c := range parent.children {
		for _, e := range c.users {
			if a.satisfiedAt(e.profile, childLevel, c.count) {
				return false
			}
		}
	}
	return true
}

// maybeSplit splits leaf into four children when it meets the split
// criterion (splitCounts), then recurses into the children. Splitting
// cost — redistributing the users and creating the four child
// counters — is charged to the update accounting; the paper amortizes
// exactly this cost.
func (a *Adaptive) maybeSplit(leaf *aNode) {
	if leaf.children != nil || leaf.cell.Level >= a.grid.LowestLevel() || len(leaf.users) == 0 {
		return
	}
	counts, split := a.splitCounts(leaf)
	if !split {
		return
	}
	cells := leaf.cell.Children()
	var children [4]*aNode
	for i := range children {
		children[i] = &aNode{
			cell:   cells[i],
			parent: leaf,
			count:  counts[i],
			users:  make(map[UserID]*aEntry),
		}
	}
	for uid, e := range leaf.users {
		c := children[childIndex(leaf.cell, a.grid.LeafAt(e.pos))]
		c.users[uid] = e
		e.slot = c
	}
	leaf.users = nil
	leaf.children = &children
	a.updates += int64(4 + leaf.count) // new counters + redistribution
	for _, c := range children {
		a.maybeSplit(c)
	}
}

// maybeMerge merges parent's four children back into it when they
// meet the merge criterion (mergeable), then recurses upward.
func (a *Adaptive) maybeMerge(parent *aNode) {
	for parent != nil && parent.children != nil && a.mergeable(parent) {
		merged := make(map[UserID]*aEntry)
		moved := 0
		for _, c := range parent.children {
			for uid, e := range c.users {
				merged[uid] = e
				e.slot = parent
				moved++
			}
			// Detach the orphaned child so stale references to it are
			// inert (e.g. the split check that follows a merge in the
			// same mutation).
			c.users = nil
			c.parent = nil
		}
		parent.users = merged
		parent.children = nil
		a.updates += int64(4 + moved)
		parent = parent.parent
	}
}

// CheckConsistency verifies structural invariants (tests only):
// counts aggregate correctly, users sit in leaves whose cells contain
// them, the user index agrees with the tree, and the tree is the
// split/merge fixed point (no leaf meets the split criterion, no node
// meets the merge criterion).
func (a *Adaptive) CheckConsistency() error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	seen := map[UserID]bool{}
	var walk func(n *aNode) (int, error)
	walk = func(n *aNode) (int, error) {
		if n.children == nil {
			for uid, e := range n.users {
				if e.slot != n {
					return 0, fmt.Errorf("user %d leaf pointer mismatch", uid)
				}
				if got := a.grid.CellAt(n.cell.Level, e.pos); got != n.cell {
					return 0, fmt.Errorf("user %d at %v outside leaf cell %v", uid, e.pos, n.cell)
				}
				if seen[uid] {
					return 0, fmt.Errorf("user %d appears in two leaves", uid)
				}
				seen[uid] = true
			}
			if n.count != len(n.users) {
				return 0, fmt.Errorf("leaf %v count %d != users %d", n.cell, n.count, len(n.users))
			}
			if n.cell.Level < a.grid.LowestLevel() {
				if _, split := a.splitCounts(n); split {
					return 0, fmt.Errorf("leaf %v meets the split criterion", n.cell)
				}
			}
			return n.count, nil
		}
		if n.users != nil {
			return 0, fmt.Errorf("internal node %v holds users", n.cell)
		}
		sum := 0
		for i, c := range n.children {
			if c.parent != n {
				return 0, fmt.Errorf("child %d of %v has wrong parent", i, n.cell)
			}
			if c.cell != n.cell.Children()[i] {
				return 0, fmt.Errorf("child %d of %v has cell %v", i, n.cell, c.cell)
			}
			s, err := walk(c)
			if err != nil {
				return 0, err
			}
			sum += s
		}
		if sum != n.count {
			return 0, fmt.Errorf("node %v count %d != children sum %d", n.cell, n.count, sum)
		}
		if a.mergeable(n) {
			return 0, fmt.Errorf("node %v meets the merge criterion", n.cell)
		}
		return sum, nil
	}
	total, err := walk(a.root)
	if err != nil {
		return err
	}
	if total != len(a.users) {
		return fmt.Errorf("tree users %d != index %d", total, len(a.users))
	}
	for uid := range a.users {
		if !seen[uid] {
			return fmt.Errorf("user %d in index but not in tree", uid)
		}
	}
	return nil
}
