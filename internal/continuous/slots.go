package continuous

import "casper/internal/rtree"

// slotTable numbers the stored objects of one data kind. Each object's
// item lives in a slot, and a standing candidate list is a list of
// 4-byte slot handles rather than copies of 56-byte items: the lists
// are most of the monitor's heap, and handles hold no pointer for the
// GC to scan. An object keeps its slot while it moves, so a move
// rewrites one item and no list.
//
// A removed object's slot is not reused until the ingestion in
// progress settles (reclaim): a query marked for a re-run skips its
// deltas, so its list may still name the slot, and rerunLocked reads
// the list as the ID set the query started from. Within an ingestion a
// slot therefore names one object, and comparing slot sets compares ID
// sets. Guarded by Monitor.mu.
type slotTable struct {
	of    map[int64]int32 // stored ID -> slot
	items []rtree.Item    // slot -> item; a reclaimed slot holds the zero Item
	free  []int32         // reclaimed slots, reused last-in first-out
	freed []int32         // slots released since the last reclaim
	// mark and gen hold one slot set at a time: slot s is in it iff
	// mark[s] == gen, and nextGen empties it.
	mark []uint32
	gen  uint32
}

func newSlotTable() slotTable { return slotTable{of: make(map[int64]int32)} }

// put stores it under its ID, in the slot the ID already holds or else
// a reclaimed or new one, and returns the slot.
func (t *slotTable) put(it rtree.Item) int32 {
	if s, ok := t.of[it.ID]; ok {
		t.items[s] = it
		return s
	}
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
		t.items[s] = it
	} else {
		s = int32(len(t.items))
		t.items = append(t.items, it)
		t.mark = append(t.mark, 0)
	}
	t.of[it.ID] = s
	return s
}

// release forgets a stored ID and returns its slot, which keeps the
// item until reclaim.
func (t *slotTable) release(id int64) int32 {
	s := t.of[id]
	t.freed = append(t.freed, s)
	delete(t.of, id)
	return s
}

// reclaim makes the slots released since the last reclaim reusable.
func (t *slotTable) reclaim() {
	for _, s := range t.freed {
		t.items[s] = rtree.Item{}
	}
	t.free = append(t.free, t.freed...)
	t.freed = t.freed[:0]
}

// nextGen empties the marked slot set and returns its new generation.
func (t *slotTable) nextGen() uint32 {
	t.gen++
	if t.gen == 0 {
		clear(t.mark)
		t.gen = 1
	}
	return t.gen
}

// slotsOf returns the slots of stored items as an exact-size list, nil
// when empty.
func (t *slotTable) slotsOf(items []rtree.Item) []int32 {
	if len(items) == 0 {
		return nil
	}
	slots := make([]int32, len(items))
	for i, it := range items {
		slots[i] = t.of[it.ID]
	}
	return slots
}

// itemsOf returns the items a slot list names as an exact-size list,
// nil when empty.
func (t *slotTable) itemsOf(slots []int32) []rtree.Item {
	if len(slots) == 0 {
		return nil
	}
	items := make([]rtree.Item, len(slots))
	for i, s := range slots {
		items[i] = t.items[s]
	}
	return items
}

// idsOf returns the IDs of the items a slot list names as an
// exact-size list, nil when empty. A released slot still names its
// object until reclaim.
func (t *slotTable) idsOf(slots []int32) []int64 {
	if len(slots) == 0 {
		return nil
	}
	ids := make([]int64, len(slots))
	for i, s := range slots {
		ids[i] = t.items[s].ID
	}
	return ids
}
