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
// be pid-unique. It applies every op — mutating the shadow table and
// folding the change into each matched query — then settles, so a query
// matched by many ops of one batch re-runs at most once and notifies at
// most once.
func (m *Monitor) applyPrivate(ops []applyOp) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		m.applyTicks.Add(1)
		m.applyNanos.Add(int64(d))
		monApplySeconds.Observe(d.Seconds())
	}()
	m.noteUpdates(int64(len(ops)))
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range ops {
		m.applyOneLocked(&ops[i])
	}
	m.settleLocked()
}

// applyOneLocked mutates the shadow table for one op and matches the
// change against the standing queries. Caller holds mu.
func (m *Monitor) applyOneLocked(op *applyOp) {
	old, had := m.regions[op.pid]
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
		delete(m.regions, op.pid)
	} else {
		ch.New, ch.Has = rtree.Item{Rect: op.region, ID: op.pid}, true
		m.priv.Insert(ch.New)
		m.regions[op.pid] = op.region
	}
	m.match(ch, privacyqp.PrivateData)
}

// match folds one change to the table of kind into every standing
// query whose interest region its old or new region touches, once
// each. fold never re-indexes a query, so the searches stay valid:
// re-runs wait for settleLocked. Caller holds mu.
func (m *Monitor) match(ch privacyqp.Change, kind privacyqp.DataKind) {
	if ch.Had {
		m.qidx.SearchFunc(ch.Old.Rect, func(it rtree.Item) bool {
			m.fold(m.queries[QueryID(it.ID)], ch, kind)
			return true
		})
	}
	if ch.Has {
		m.qidx.SearchFunc(ch.New.Rect, func(it rtree.Item) bool {
			// The old region's search folded the whole change into the
			// queries it matched.
			if q := m.queries[QueryID(it.ID)]; !ch.Had || !q.interest.Intersects(ch.Old.Rect) {
				m.fold(q, ch, kind)
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
func (m *Monitor) fold(q *query, ch privacyqp.Change, kind privacyqp.DataKind) {
	if q.kind == qRange {
		if kind != privacyqp.PrivateData {
			return
		}
		var delta float64
		if ch.Had {
			delta -= contribution(ch.Old.Rect, q.rect, q.policy)
		}
		if ch.Has {
			delta += contribution(ch.New.Rect, q.rect, q.policy)
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
	// A failed evaluation has nothing to fold into, and a safe region
	// widened by the distance slack was derived from the list itself.
	if !q.hasSafe || q.safe != q.evalCloak || q.kind == qNN && q.res.FiltersMayChange(ch, kind) {
		q.rerun = true
		return
	}
	m.delta(q, ch)
}

// delta folds ch into q's candidate list. The filters, and with them
// A_EXT, are unchanged, so a fresh evaluation differs from the list at
// most in ch's target: it is dropped (swap-remove), added, or — still
// admitted — refreshed in place with no change to the ID set. Caller
// holds mu.
func (m *Monitor) delta(q *query, ch privacyqp.Change) {
	cands := q.res.Candidates
	i := -1
	// The list holds exactly the admitted targets, so only an admitted
	// old region needs the scan.
	if ch.Had && q.admits(ch.Old.Rect) {
		for j, c := range cands {
			if c.ID == ch.Old.ID && c.Rect == ch.Old.Rect {
				i = j
				break
			}
		}
	}
	in := ch.Has && q.admits(ch.New.Rect)
	switch {
	case i >= 0 && in:
		cands[i] = ch.New
		return
	case i >= 0:
		last := len(cands) - 1
		cands[i], cands[last] = cands[last], rtree.Item{}
		q.res.Candidates = cands[:last]
		m.flips = append(m.flips, flip{q: q, id: ch.Old.ID, was: true})
	case in:
		if len(cands) == cap(cands) {
			// Grow by an eighth, not by append's doubling: lists live as
			// long as their queries, and drops free slots as often as
			// adds fill them.
			cands = append(make([]rtree.Item, 0, len(cands)+len(cands)/8+1), cands...)
		}
		q.res.Candidates = append(cands, ch.New)
		m.flips = append(m.flips, flip{q: q, id: ch.New.ID})
	default:
		return
	}
	q.changed = true
}

// flip records one delta that added (was false) or dropped (was true)
// a candidate during the ingestion in progress, so a re-run in the
// same ingestion can recover the ID set the query started from.
type flip struct {
	q   *query
	id  int64
	was bool
}

// settleLocked ends an ingestion: it re-runs the queries marked for a
// re-run and emits one CandidatesChanged for each query whose candidate
// ID set now differs from the set before the ingestion. Caller holds
// mu.
func (m *Monitor) settleLocked() {
	for _, q := range m.pending {
		changed := q.changed
		if q.rerun {
			changed = m.rerunLocked(q)
		}
		q.touched, q.rerun, q.changed = false, false, false
		if changed {
			m.emitCandidates(q)
		}
	}
	clear(m.pending)
	m.pending = m.pending[:0]
	clear(m.flips)
	m.flips = m.flips[:0]
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
func (m *Monitor) SetPublic(items []rtree.Item) {
	// BulkLoad reorders its input; copy so the caller's slice is untouched.
	pub := rtree.BulkLoad(append([]rtree.Item(nil), items...))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pub = pub
	for _, q := range m.queries {
		if q.kind != qRange && q.dataKind == privacyqp.PublicData && m.rerunLocked(q) {
			m.emitCandidates(q)
		}
	}
}

// AddPublic inserts one public object and folds it into the
// public-data queries whose interest regions it enters.
func (m *Monitor) AddPublic(it rtree.Item) {
	m.noteUpdates(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pub.Insert(it)
	m.match(privacyqp.Change{New: it, Has: true}, privacyqp.PublicData)
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
		m.match(privacyqp.Change{Old: rtree.Item{Rect: r, ID: id}, Had: true}, privacyqp.PublicData)
		m.settleLocked()
	}
	return ok
}
