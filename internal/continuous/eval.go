package continuous

import (
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// evalQueryLocked (re)evaluates a query of any kind from the current
// tables at its current cloak, refreshing its answer and interest
// region. It returns the evaluation's candidate list, which q keeps as
// slots only. Caller holds mu.
func (m *Monitor) evalQueryLocked(q *query) ([]rtree.Item, error) {
	if q.kind == qRange {
		count, err := privacyqp.PublicRangeCount(m.priv, q.rect, q.policy)
		if err != nil {
			return nil, err
		}
		q.count, q.interest = count, q.rect
		return nil, nil
	}
	var res privacyqp.Result
	var err error
	if q.kind == qNN {
		res, err = privacyqp.PrivateNN(m.table(q), q.cloak, q.dataKind, q.opt)
	} else {
		res, err = privacyqp.PrivateRange(m.table(q), q.cloak, q.radius, q.dataKind)
	}
	if err != nil {
		return nil, err
	}
	cands := res.Candidates
	res.Candidates = nil
	q.evalCloak, q.interest, q.res, q.failed = q.cloak, res.AExt, res, false
	q.list = m.slots(q.dataKind).slotsOf(cands)
	return cands, nil
}

// table returns the tree q reads, with the asker's own cloak hidden
// (privacyqp.Without) when q excludes it.
func (m *Monitor) table(q *query) privacyqp.SpatialIndex {
	if q.dataKind == privacyqp.PublicData {
		return m.pub
	}
	return privacyqp.Without(m.priv, q.exclude)
}

// slots returns the slot table of a data kind.
func (m *Monitor) slots(kind privacyqp.DataKind) *slotTable {
	if kind == privacyqp.PublicData {
		return &m.pubSlots
	}
	return &m.privSlots
}

// admits is the candidate rule of q's last evaluation, applied to one
// target region: privacyqp.Admits over A_EXT for NN queries,
// privacyqp.InRange for radius queries.
func (q *query) admits(r geom.Rect) bool {
	if q.kind == qRadius {
		return privacyqp.InRange(r, q.evalCloak, q.radius, q.dataKind)
	}
	return privacyqp.Admits(r, q.res.AExt, q.dataKind, q.opt.MinOverlap)
}

// rerunLocked re-runs one NN/radius query against the current tables
// and re-indexes it if its interest region moved. It reports whether
// the candidate set differs from the one the query had before the
// ingestion in progress: its list with the ingestion's flips undone,
// marked in the slot table. Caller holds mu; it must not be called
// from inside a query-index search.
func (m *Monitor) rerunLocked(q *query) bool {
	t := m.slots(q.dataKind)
	gen := t.nextGen()
	for _, s := range q.list {
		t.mark[s] = gen
	}
	n := len(q.list)
	// Undo the flips latest first, so the marks end as they stood
	// before the ingestion.
	for i := len(m.flips) - 1; i >= 0; i-- {
		f := m.flips[i]
		switch {
		case f.q != q:
		case f.was && t.mark[f.s] != gen:
			t.mark[f.s] = gen
			n++
		case !f.was && t.mark[f.s] == gen:
			t.mark[f.s] = 0
			n--
		}
	}
	oldInterest := q.interest
	if _, err := m.evalQueryLocked(q); err != nil {
		// Evaluation failure (empty table, degenerate cloak): publish
		// an empty answer and watch the whole universe so the first
		// relevant change re-evaluates and recovers the query.
		q.evalCloak, q.failed = geom.Rect{}, true
		q.interest = m.cfg.Universe
		q.res, q.list = privacyqp.Result{}, nil
	}
	m.noteEval()
	if q.interest != oldInterest {
		m.qidx.Delete(int64(q.id), oldInterest)
		m.qidx.Insert(rtree.Item{Rect: q.interest, ID: int64(q.id)})
	}
	// Slots are unique in a list, so equal sizes and inclusion suffice.
	if len(q.list) != n {
		return true
	}
	for _, s := range q.list {
		if t.mark[s] != gen {
			return true
		}
	}
	return false
}

// emitCandidates notifies q's subscriber of its current candidate
// list. Caller holds mu.
func (m *Monitor) emitCandidates(q *query) {
	m.emit(Event{
		Query:      q.id,
		Kind:       CandidatesChanged,
		Candidates: m.slots(q.dataKind).itemsOf(q.list),
	})
}
