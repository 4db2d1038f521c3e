package continuous

import (
	"math"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// evalQueryLocked (re)evaluates a query of any kind from the current
// shadow tables, refreshing its answer, interest region, and safe
// region. Caller holds mu.
func (m *Monitor) evalQueryLocked(q *query) error {
	if q.kind == qRange {
		count, err := privacyqp.PublicRangeCount(m.priv, q.rect, q.policy)
		if err != nil {
			return err
		}
		q.count, q.interest = count, q.rect
		return nil
	}
	ec := m.evalCloakFor(q.cloak)
	var res privacyqp.Result
	var err error
	if q.kind == qNN {
		res, err = privacyqp.PrivateNN(m.table(q), ec, q.dataKind, q.opt)
	} else {
		res, err = privacyqp.PrivateRange(m.table(q), ec, q.radius, q.dataKind)
	}
	if err != nil {
		return err
	}
	// An answer computed at C+ is inclusive for every cloak inside C+,
	// so C+ is the safe region; an NN answer widens it by the distance
	// slack, while a radius answer has no slack to add without
	// admitting targets beyond A_EXT.
	slack := 0.0
	if q.kind == qNN {
		slack = privacyqp.CandidateValiditySlack(ec, res.AExt, res.Candidates, q.dataKind, q.opt.MinOverlap)
	}
	q.evalCloak, q.interest, q.res = ec, res.AExt, res
	q.safe, q.hasSafe = ec.Expand(slack), true
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

// evalCloakFor inflates the asker's cloak per SafeRegionFrac: the
// evaluation runs at C+ = cloak expanded by frac of its longer side.
// Because C+ contains every cloak the asker can report while staying
// inside the safe region, a candidate list computed at C+ is
// inclusive for all of them — that containment is the safe region's
// correctness argument, and the slack from CandidateValiditySlack
// widens it further.
func (m *Monitor) evalCloakFor(cloak geom.Rect) geom.Rect {
	f := m.cfg.SafeRegionFrac
	if f <= 0 || !cloak.IsValid() {
		return cloak
	}
	return cloak.Expand(f * math.Max(cloak.Width(), cloak.Height()))
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
		q.evalCloak = geom.Rect{}
		q.safe = geom.Rect{}
		q.hasSafe = false
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
