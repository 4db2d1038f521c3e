package continuous

import (
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// evalQueryLocked (re)evaluates a query of any kind from the current
// shadow tables at its current cloak, refreshing its answer and
// interest region. Caller holds mu.
func (m *Monitor) evalQueryLocked(q *query) error {
	if q.kind == qRange {
		count, err := privacyqp.PublicRangeCount(m.priv, q.rect, q.policy)
		if err != nil {
			return err
		}
		q.count, q.interest = count, q.rect
		return nil
	}
	var res privacyqp.Result
	var err error
	if q.kind == qNN {
		res, err = privacyqp.PrivateNN(m.table(q), q.cloak, q.dataKind, q.opt)
	} else {
		res, err = privacyqp.PrivateRange(m.table(q), q.cloak, q.radius, q.dataKind)
	}
	if err != nil {
		return err
	}
	q.evalCloak, q.interest, q.res, q.failed = q.cloak, res.AExt, res, false
	return nil
}

// table returns the shadow table q reads, with the asker's own cloak
// hidden (privacyqp.Without) when q excludes it.
func (m *Monitor) table(q *query) privacyqp.SpatialIndex {
	if q.dataKind == privacyqp.PublicData {
		return m.pub
	}
	return privacyqp.Without(m.priv, q.exclude)
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
// the candidate ID set differs from the one the query had before the
// ingestion in progress: its list with the ingestion's flips undone.
// Caller holds mu; it must not be called from inside a query-index
// search.
func (m *Monitor) rerunLocked(q *query) bool {
	before := make(map[int64]bool, len(q.res.Candidates))
	for _, c := range q.res.Candidates {
		before[c.ID] = true
	}
	for _, f := range m.flips {
		if f.q != q {
			continue
		}
		if f.was {
			before[f.id] = true
		} else {
			delete(before, f.id)
		}
	}
	oldInterest := q.interest
	if err := m.evalQueryLocked(q); err != nil {
		// Evaluation failure (empty table, degenerate cloak): publish
		// an empty answer and watch the whole universe so the first
		// relevant change re-evaluates and recovers the query.
		q.evalCloak, q.failed = geom.Rect{}, true
		q.interest = m.cfg.Universe
		q.res = privacyqp.Result{}
	}
	m.noteEval()
	if q.interest != oldInterest {
		m.qidx.Delete(int64(q.id), oldInterest)
		m.qidx.Insert(rtree.Item{Rect: q.interest, ID: int64(q.id)})
	}
	// IDs are unique in a table, so equal sizes and inclusion suffice.
	if len(q.res.Candidates) != len(before) {
		return true
	}
	for _, c := range q.res.Candidates {
		if !before[c.ID] {
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
		Candidates: append([]rtree.Item(nil), q.res.Candidates...),
	})
}
