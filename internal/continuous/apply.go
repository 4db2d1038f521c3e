package continuous

import (
	"cmp"
	"fmt"
	"slices"
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
// batch collapse to the last occurrence. Range counts and the
// candidate lists of the NN and radius queries whose interest regions
// an update touches take it as a delta; an NN query whose filters it
// may change re-runs Algorithm 2 once, after the whole batch.
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
// be pid-unique. It applies every op — mutating the private table and
// folding the change into each matched query — then settles, so a query
// matched by many ops of one batch re-runs at most once and notifies at
// most once.
func (m *Monitor) applyPrivate(ops []applyOp) {
	start := time.Now()
	defer func() { monApplySeconds.Observe(time.Since(start).Seconds()) }()
	m.noteUpdates(int64(len(ops)))
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range ops {
		m.applyOneLocked(&ops[i])
	}
	m.settleLocked()
}

// applyOneLocked mutates the private table for one op and matches the
// change against the standing queries. Caller holds mu.
func (m *Monitor) applyOneLocked(op *applyOp) {
	t := &m.privSlots
	s, had := t.of[op.pid]
	var old geom.Rect
	if had {
		old = t.items[s].Rect
	}
	if op.remove && !had || !op.remove && had && old == op.region {
		// Nothing to remove, or the same region re-announced: counted
		// as an update (the stream delivered it) but nothing changed.
		op.ok = !op.remove
		return
	}
	op.ok = true
	ch := privacyqp.Change{Old: rtree.Item{Rect: old, ID: op.pid}, Had: had}
	if had {
		m.priv.Delete(op.pid, old)
	}
	if op.remove {
		t.release(op.pid)
	} else {
		ch.New, ch.Has = rtree.Item{Rect: op.region, ID: op.pid}, true
		m.priv.Insert(ch.New)
		s = t.put(ch.New)
	}
	m.match(ch, s, privacyqp.PrivateData)
}

// match folds one change to the table of kind, whose target holds slot
// s, into every standing query whose interest region its old or new
// region touches, once each. fold never re-indexes a query, so the
// searches stay valid: re-runs wait for settleLocked. Caller holds mu.
func (m *Monitor) match(ch privacyqp.Change, s int32, kind privacyqp.DataKind) {
	if ch.Had {
		m.qidx.SearchFunc(ch.Old.Rect, func(it rtree.Item) bool {
			m.fold(m.queries[QueryID(it.ID)], ch, s, kind)
			return true
		})
	}
	if ch.Has {
		m.qidx.SearchFunc(ch.New.Rect, func(it rtree.Item) bool {
			// The old region's search folded the whole change into the
			// queries it matched.
			if q := m.queries[QueryID(it.ID)]; !ch.Had || !q.interest.Intersects(ch.Old.Rect) {
				m.fold(q, ch, s, kind)
			}
			return true
		})
	}
}

// fold applies one change to the table of kind to one query: a range
// count over private data adds its contribution delta; an NN or radius
// query over kind takes a candidate delta, or is marked to re-run when
// its filters may change. The asker's own excluded pseudonym is
// invisible to her query. Caller holds mu.
func (m *Monitor) fold(q *query, ch privacyqp.Change, s int32, kind privacyqp.DataKind) {
	if q.kind == qRange {
		if kind != privacyqp.PrivateData {
			return
		}
		var delta float64
		if ch.Had {
			delta -= q.policy.Contribution(ch.Old.Rect, q.rect)
		}
		if ch.Has {
			delta += q.policy.Contribution(ch.New.Rect, q.rect)
		}
		m.applyCountDelta(q, delta)
		return
	}
	if q.dataKind != kind || q.rerun || kind == privacyqp.PrivateData && ch.ID() == q.exclude {
		return
	}
	if !q.touched {
		q.touched = true
		m.pending = append(m.pending, q)
	}
	// A failed evaluation has nothing to fold into.
	if q.failed || q.kind == qNN && q.res.FiltersMayChange(ch, kind) {
		q.rerun = true
		return
	}
	m.delta(q, ch, s)
}

// delta folds ch, whose target holds slot s, into q's candidate list.
// The filters, and with them A_EXT, are unchanged, so a fresh
// evaluation differs from the list at most in ch's target: it is
// dropped (swap-remove) or added. A target that moves and stays
// admitted keeps its slot, whose item the table already updated.
// Caller holds mu.
func (m *Monitor) delta(q *query, ch privacyqp.Change, s int32) {
	list := q.list
	i := -1
	// The list holds exactly the admitted targets, so only an admitted
	// old region needs the scan.
	if ch.Had && q.admits(ch.Old.Rect) {
		i = slices.Index(list, s)
	}
	in := ch.Has && q.admits(ch.New.Rect)
	switch {
	case i >= 0 && in:
		// Kept: the table already holds its new rect.
	case i >= 0:
		last := len(list) - 1
		list[i] = list[last]
		q.list = list[:last]
		m.flips = append(m.flips, flip{q: q, s: s, was: true})
	case in:
		if len(list) == cap(list) {
			// Grow by an eighth, not by append's doubling: lists live as
			// long as their queries, and drops free room as often as
			// adds fill it.
			list = append(make([]int32, 0, len(list)+len(list)/8+1), list...)
		}
		q.list = append(list, s)
		m.flips = append(m.flips, flip{q: q, s: s})
	}
}

// flip records one delta that added (was false) or dropped (was true)
// the candidate in slot s during the ingestion in progress. Ops are
// pid-unique and a released slot is not reused before the ingestion
// settles, so a slot flips at most once per query and ingestion: a
// query's flips are its change, and a re-run in the same ingestion
// undoes them to recover the set the query started from.
type flip struct {
	q   *query
	s   int32
	was bool
}

// settleLocked ends an ingestion: it re-runs the queries marked for a
// re-run and emits one CandidatesChanged for each query whose candidate
// ID set now differs from the set before the ingestion, carrying the
// difference: the query's flips, or what its re-run found. Every re-run
// has then read its old list, so the slots the ingestion released are
// reclaimed. Caller holds mu.
func (m *Monitor) settleLocked() {
	slices.SortStableFunc(m.flips, func(a, b flip) int { return cmp.Compare(a.q.id, b.q.id) })
	for _, q := range m.pending {
		flips := m.flipsOf(q)
		if q.rerun {
			m.rerunLocked(q, flips)
		} else {
			for _, f := range flips {
				if f.was {
					m.dropped = append(m.dropped, f.s)
				} else {
					m.added = append(m.added, f.s)
				}
			}
		}
		q.touched, q.rerun = false, false
		m.emitDelta(q)
	}
	clear(m.pending)
	m.pending = m.pending[:0]
	clear(m.flips)
	m.flips = m.flips[:0]
	m.pubSlots.reclaim()
	m.privSlots.reclaim()
}

// flipsOf returns q's flips from m.flips, which settleLocked sorted by
// query ID.
func (m *Monitor) flipsOf(q *query) []flip {
	i, _ := slices.BinarySearchFunc(m.flips, q.id, func(f flip, id QueryID) int { return cmp.Compare(f.q.id, id) })
	j := i
	for j < len(m.flips) && m.flips[j].q == q {
		j++
	}
	return m.flips[i:j]
}

func (m *Monitor) applyCountDelta(q *query, delta float64) {
	if delta == 0 {
		return
	}
	q.count += delta
	m.emit(Event{Query: q.id, Kind: CountChanged, Count: q.count})
}

// SetPublic replaces the public table (stationary objects of
// interest) and re-evaluates every standing query over public data.
// An ID given more than once keeps its last item.
func (m *Monitor) SetPublic(items []rtree.Item) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// IDs that remain keep their slots; the rest are released, and
	// reclaimed once the re-runs have read the old lists.
	t := &m.pubSlots
	gen := t.nextGen()
	slots := make([]int32, len(items))
	for i, it := range items {
		slots[i] = t.put(it)
		t.mark[slots[i]] = gen
	}
	for id, s := range t.of {
		if t.mark[s] != gen {
			t.release(id)
		}
	}
	// BulkLoad reorders its input, so it gets a copy: one item per ID.
	pub := make([]rtree.Item, 0, len(t.of))
	for _, s := range slots {
		if t.mark[s] == gen {
			pub = append(pub, t.items[s])
			t.mark[s] = 0
		}
	}
	m.pub = rtree.BulkLoad(pub)
	for _, q := range m.queries {
		if q.kind != qRange && q.dataKind == privacyqp.PublicData {
			m.rerunLocked(q, nil)
			m.emitDelta(q)
		}
	}
	t.reclaim()
}

// AddPublic inserts one public object and folds it into the
// public-data queries whose interest regions it enters. An ID already
// stored moves to the new item.
func (m *Monitor) AddPublic(it rtree.Item) {
	m.noteUpdates(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &m.pubSlots
	ch := privacyqp.Change{New: it, Has: true}
	if s, ok := t.of[it.ID]; ok {
		ch.Old, ch.Had = t.items[s], true
		m.pub.Delete(it.ID, ch.Old.Rect)
	}
	m.pub.Insert(it)
	m.match(ch, t.put(it), privacyqp.PublicData)
	m.settleLocked()
}

// RemovePublic deletes a public object by ID and bounding rectangle,
// reporting whether it was present.
func (m *Monitor) RemovePublic(id int64, r geom.Rect) bool {
	m.noteUpdates(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	ok := m.pub.Delete(id, r)
	if ok {
		s := m.pubSlots.release(id)
		m.match(privacyqp.Change{Old: rtree.Item{Rect: r, ID: id}, Had: true}, s, privacyqp.PublicData)
		m.settleLocked()
	}
	return ok
}
