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
	switch q.kind {
	case qRange:
		count, err := privacyqp.PublicRangeCount(m.priv, q.rect, q.policy)
		if err != nil {
			return err
		}
		q.count = count
		q.interest = q.rect
		return nil
	case qNN:
		return m.evalNNLocked(q)
	default:
		return m.evalRadiusLocked(q)
	}
}

// table returns the shadow table a query over kind reads.
func (m *Monitor) table(kind privacyqp.DataKind) *rtree.Tree {
	if kind == privacyqp.PublicData {
		return m.pub
	}
	return m.priv
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

func (m *Monitor) evalNNLocked(q *query) error {
	ec := m.evalCloakFor(q.cloak)
	res, err := privacyqp.PrivateNN(m.table(q.dataKind), ec, q.dataKind, q.opt)
	if err != nil {
		return err
	}
	cands := dropID(res.Candidates, q.exclude)
	slack := 0.0
	if q.exclude < 0 {
		slack = privacyqp.CandidateValiditySlack(ec, res.AExt, cands, q.dataKind, q.opt.MinOverlap)
	}
	q.evalCloak = ec
	q.interest = res.AExt
	q.safe = ec.Expand(slack)
	q.hasSafe = true
	m.setCandidates(q, cands)
	return nil
}

func (m *Monitor) evalRadiusLocked(q *query) error {
	ec := m.evalCloakFor(q.cloak)
	res, err := privacyqp.PrivateRange(m.table(q.dataKind), ec, q.radius, q.dataKind)
	if err != nil {
		return err
	}
	q.evalCloak = ec
	q.interest = res.AExt
	// A radius answer computed at C+ is inclusive for every cloak
	// inside C+ (the candidate set only shrinks as the cloak does), so
	// containment alone is the safe region; there is no distance slack
	// to add without admitting targets beyond A_EXT.
	q.safe = ec
	q.hasSafe = true
	m.setCandidates(q, dropID(res.Candidates, q.exclude))
	return nil
}

// dropID filters the asker's own pseudonym out of a candidate list in
// place; a negative id drops nothing.
func dropID(cands []rtree.Item, id int64) []rtree.Item {
	if id < 0 {
		return cands
	}
	kept := cands[:0]
	for _, c := range cands {
		if c.ID != id {
			kept = append(kept, c)
		}
	}
	return kept
}

func (m *Monitor) setCandidates(q *query, cands []rtree.Item) {
	q.candidates = cands
	ids := make(map[int64]bool, len(cands))
	for _, c := range cands {
		ids[c.ID] = true
	}
	q.candIDs = ids
}

// reevalLocked re-runs one NN/radius query against the current
// tables, re-indexes it if its interest region moved, and notifies the
// subscriber if the candidate set changed. Caller holds mu and manages
// the dirty flag; it must not be called from inside a query-index
// search.
func (m *Monitor) reevalLocked(q *query) {
	oldIDs := q.candIDs
	oldInterest := q.interest
	if err := m.evalQueryLocked(q); err != nil {
		// Evaluation failure (empty table, degenerate cloak): publish
		// an empty answer and watch the whole universe so the first
		// relevant change re-evaluates and recovers the query.
		q.evalCloak = geom.Rect{}
		q.safe = geom.Rect{}
		q.hasSafe = false
		q.interest = m.cfg.Universe
		m.setCandidates(q, nil)
	}
	m.noteEval()
	if q.interest != oldInterest {
		m.qidx.Delete(int64(q.id), oldInterest)
		m.qidx.Insert(rtree.Item{Rect: q.interest, ID: int64(q.id)})
	}
	if !sameIDSet(oldIDs, q.candIDs) {
		m.emit(Event{
			Query:      q.id,
			Kind:       CandidatesChanged,
			Candidates: append([]rtree.Item(nil), q.candidates...),
		})
	}
}
