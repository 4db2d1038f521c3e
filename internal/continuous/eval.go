package continuous

import (
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// evalQueryLocked (re)evaluates a query of any kind from the current
// tables at its current cloak, refreshing its answer and interest
// region. It returns the evaluation's candidate list appended to dst
// (an exact-size list when dst is nil), which q keeps as slots only.
// Caller holds mu.
func (m *Monitor) evalQueryLocked(q *query, dst []rtree.Item) ([]rtree.Item, error) {
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
	switch {
	case q.kind == qNN && q.dataKind == privacyqp.PublicData:
		// The one-shot answer's exact list (server.NNPublic).
		res, err = privacyqp.ExactPublicNNInto(m.pub, q.cloak, q.opt, dst)
	case q.kind == qNN:
		res, err = privacyqp.PrivateNNInto(m.table(q), q.cloak, q.dataKind, q.opt, dst)
	default:
		res, err = privacyqp.PrivateRangeInto(m.table(q), q.cloak, q.radius, q.dataKind, dst)
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
// and re-indexes it if its interest region moved. It appends to
// m.added and m.dropped the slots by which the new candidate set
// differs from the set the query had before the ingestion in progress:
// its list with flips, its own flips of that ingestion, undone, marked
// in the slot table. Caller holds mu; it must not be called from inside
// a query-index search.
func (m *Monitor) rerunLocked(q *query, flips []flip) {
	t := m.slots(q.dataKind)
	gen := t.nextGen()
	for _, s := range q.list {
		t.mark[s] = gen
	}
	// A slot flips at most once per ingestion, so the undo can run in
	// any order.
	for _, f := range flips {
		if f.was {
			t.mark[f.s] = gen
		} else {
			t.mark[f.s] = 0
		}
	}
	old, oldInterest := q.list, q.interest
	cands, err := m.evalQueryLocked(q, m.evalBuf[:0])
	m.evalBuf = cands
	if err != nil {
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
	// Unmarking the kept slots leaves marked exactly the dropped ones,
	// each in the old list or among the dropping flips, never both.
	for _, s := range q.list {
		if t.mark[s] == gen {
			t.mark[s] = 0
		} else {
			m.added = append(m.added, s)
		}
	}
	for _, s := range old {
		if t.mark[s] == gen {
			m.dropped = append(m.dropped, s)
		}
	}
	for _, f := range flips {
		if f.was && t.mark[f.s] == gen {
			m.dropped = append(m.dropped, f.s)
		}
	}
}

// emitDelta notifies q's subscriber of the change collected in
// m.added and m.dropped, if there is one, and empties both. Caller
// holds mu.
func (m *Monitor) emitDelta(q *query) {
	if len(m.added) == 0 && len(m.dropped) == 0 {
		return
	}
	t := m.slots(q.dataKind)
	m.emit(Event{
		Query:   q.id,
		Kind:    CandidatesChanged,
		Added:   t.itemsOf(m.added),
		Dropped: t.idsOf(m.dropped),
	})
	m.added, m.dropped = m.added[:0], m.dropped[:0]
}
