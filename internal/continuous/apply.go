package continuous

import (
	"fmt"
	"time"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// PrivateUpdate is one cloaked-region refresh in a batch: the stored
// pseudonym and its new cloak. The monitor is pseudonymous by design —
// it never sees real user identities.
type PrivateUpdate struct {
	ID     int64
	Region geom.Rect
}

// applyOp is one private-table mutation flowing through applyPrivate.
type applyOp struct {
	pid    int64
	region geom.Rect // ignored for removes
	remove bool
	ok     bool
}

// ApplyUpdates inserts or moves a batch of private objects (users'
// cloaked regions keyed by their stored pseudonyms) under one
// acquisition of the monitor lock. Every region must be valid or the
// whole batch is rejected before any mutation. Duplicate IDs within a
// batch collapse to the last occurrence. Range counts over the old and
// new regions adjust incrementally; NN and radius queries whose
// interest regions are touched re-evaluate, once per batch.
func (m *Monitor) ApplyUpdates(batch []PrivateUpdate) error {
	if len(batch) == 0 {
		return nil
	}
	for _, u := range batch {
		if !u.Region.IsValid() {
			return fmt.Errorf("continuous: invalid region %v for object %d", u.Region, u.ID)
		}
	}
	ops := make([]applyOp, 0, len(batch))
	for _, u := range batch {
		ops = append(ops, applyOp{pid: u.ID, region: u.Region})
	}
	if len(ops) > 1 {
		sortOps(ops)
		// Collapse duplicate pids to the last occurrence (sort is
		// stable, so the final op of a run is the final update).
		w := 0
		for i := range ops {
			if i+1 < len(ops) && ops[i+1].pid == ops[i].pid {
				continue
			}
			ops[w] = ops[i]
			w++
		}
		ops = ops[:w]
	}
	m.applyPrivate(ops)
	return nil
}

// RemovePrivate deletes a private object, reporting whether it was
// present.
func (m *Monitor) RemovePrivate(id int64) bool {
	ops := [1]applyOp{{pid: id, remove: true}}
	m.applyPrivate(ops[:])
	return ops[0].ok
}

// applyPrivate is the ingestion core, one critical section. ops must
// be pid-unique. It applies every op — mutating the shadow table,
// folding range-count deltas inline and dirty-marking matched NN/radius
// queries — then re-evaluates each dirtied query once, so a query
// matched by many ops of one batch costs one evaluation.
func (m *Monitor) applyPrivate(ops []applyOp) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		m.applyTicks.Add(1)
		m.applyNanos.Add(int64(d))
		monApplySeconds.Observe(d.Seconds())
	}()
	m.noteUpdates(int64(len(ops)))
	var pending []*query
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range ops {
		m.applyOneLocked(&ops[i], &pending)
	}
	m.reevalPending(pending)
}

// applyOneLocked mutates the shadow table for one op and joins the
// old and new regions against the query index. Caller holds mu.
func (m *Monitor) applyOneLocked(op *applyOp, pending *[]*query) {
	old, had := m.regions[op.pid]
	if op.remove {
		if !had {
			return
		}
		delete(m.regions, op.pid)
		m.priv.Delete(op.pid, old)
		m.matchPrivate(old, geom.Rect{}, true, false, pending)
		op.ok = true
		return
	}
	op.ok = true
	if had && old == op.region {
		// Same region re-announced: counted as an update (the stream
		// delivered it) but nothing can have changed.
		return
	}
	if had {
		m.priv.Delete(op.pid, old)
	}
	m.priv.Insert(rtree.Item{Rect: op.region, ID: op.pid})
	m.regions[op.pid] = op.region
	m.matchPrivate(old, op.region, had, true, pending)
}

// matchPrivate joins one private-object transition (old region ->
// new region) against the standing queries: range counts get the
// contribution delta applied inline; NN/radius queries over private
// data are dirty-marked for re-evaluation. Caller holds mu.
func (m *Monitor) matchPrivate(old, new geom.Rect, hadOld, hasNew bool, pending *[]*query) {
	if hadOld {
		m.forMatching(old, func(q *query) {
			switch q.kind {
			case qRange:
				delta := -contribution(old, q.rect, q.policy)
				if hasNew {
					delta += contribution(new, q.rect, q.policy)
				}
				m.applyCountDelta(q, delta)
			case qNN, qRadius:
				if q.dataKind == privacyqp.PrivateData {
					markDirty(q, pending)
				}
			}
		})
	}
	if !hasNew {
		return
	}
	m.forMatching(new, func(q *query) {
		switch q.kind {
		case qRange:
			// Queries also matched by the old region were fully
			// handled above (their delta already includes the new
			// contribution); skip them here.
			if hadOld && q.rect.Intersects(old) {
				return
			}
			// The old region (if any) does not intersect q.rect, so
			// its contribution was zero under every policy.
			m.applyCountDelta(q, contribution(new, q.rect, q.policy))
		case qNN, qRadius:
			if q.dataKind == privacyqp.PrivateData {
				markDirty(q, pending)
			}
		}
	})
}

// matchPublic dirty-marks the NN/radius queries over public data whose
// interest regions one public-table change touches.
func (m *Monitor) matchPublic(r geom.Rect, pending *[]*query) {
	m.forMatching(r, func(q *query) {
		if q.kind != qRange && q.dataKind == privacyqp.PublicData {
			markDirty(q, pending)
		}
	})
}

// forMatching invokes fn for every registered query whose interest
// region intersects r. fn must not re-index a query (reevalLocked
// does): callers collect matches and re-evaluate after the search.
// Caller holds mu.
func (m *Monitor) forMatching(r geom.Rect, fn func(*query)) {
	m.qidx.SearchFunc(r, func(it rtree.Item) bool {
		fn(m.queries[QueryID(it.ID)])
		return true
	})
}

func markDirty(q *query, pending *[]*query) {
	if !q.dirty {
		q.dirty = true
		*pending = append(*pending, q)
	}
}

func (m *Monitor) applyCountDelta(q *query, delta float64) {
	if delta == 0 {
		return
	}
	q.count += delta
	m.emit(Event{Query: q.id, Kind: CountChanged, Count: q.count})
}

// reevalPending re-evaluates every query an ingestion dirtied, once
// each, in the order they were first matched. Caller holds mu.
func (m *Monitor) reevalPending(pending []*query) {
	for _, q := range pending {
		q.dirty = false
		m.reevalLocked(q)
	}
}

// SetPublic replaces the public table (stationary objects of
// interest) and re-evaluates every standing query over public data.
func (m *Monitor) SetPublic(items []rtree.Item) {
	// BulkLoad reorders its input; copy so the caller's slice is untouched.
	pub := rtree.BulkLoad(append([]rtree.Item(nil), items...))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pub = pub
	for _, q := range m.queries {
		if q.kind != qRange && q.dataKind == privacyqp.PublicData {
			m.reevalLocked(q)
		}
	}
}

// AddPublic inserts one public object and re-evaluates the public-data
// queries whose interest regions it enters.
func (m *Monitor) AddPublic(it rtree.Item) {
	m.noteUpdates(1)
	var pending []*query
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pub.Insert(it)
	m.matchPublic(it.Rect, &pending)
	m.reevalPending(pending)
}

// RemovePublic deletes a public object by ID and bounding rectangle,
// reporting whether it was present.
func (m *Monitor) RemovePublic(id int64, r geom.Rect) bool {
	m.noteUpdates(1)
	var pending []*query
	m.mu.Lock()
	defer m.mu.Unlock()
	ok := m.pub.Delete(id, r)
	if ok {
		m.matchPublic(r, &pending)
		m.reevalPending(pending)
	}
	return ok
}
