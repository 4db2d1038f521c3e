package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"casper"
	"casper/internal/protocol"
)

// targetLog is the harness's own record of the public table: the base
// targets plus every add_public the run has issued. It shares no code
// with the program's indexes; the oracle scans it linearly.
type targetLog struct {
	w       *world
	adds    []casper.PublicObject // the targets add_public ops create, in the order they are handed out
	started atomic.Int64          // add indices handed out
	applied atomic.Int64          // adds[0:applied] have all been acknowledged
	acked   []atomic.Bool
}

// newTargetLog prepares room for n add_public ops. The targets are a
// function of (seed, index), so the set is the same whichever worker
// happens to send which.
func newTargetLog(w *world, n int) *targetLog {
	t := &targetLog{w: w, adds: make([]casper.PublicObject, n), acked: make([]atomic.Bool, n)}
	for i := range t.adds {
		t.adds[i] = w.addedTarget(i)
	}
	return t
}

// begin hands out the next add_public target.
func (t *targetLog) begin() (casper.PublicObject, int, error) {
	idx := int(t.started.Add(1) - 1)
	if idx >= len(t.adds) {
		return casper.PublicObject{}, 0, fmt.Errorf("more than the %d add_public ops the script was sized for", len(t.adds))
	}
	return t.adds[idx], idx, nil
}

// finish records the acknowledgement of add idx and advances the
// all-acknowledged prefix.
func (t *targetLog) finish(idx int) {
	t.acked[idx].Store(true)
	for {
		a := t.applied.Load()
		if a >= t.started.Load() || !t.acked[a].Load() {
			return
		}
		t.applied.CompareAndSwap(a, a+1)
	}
}

func (t *targetLog) sureNow() int  { return int(t.applied.Load()) }
func (t *targetLog) maybeNow() int { return int(t.started.Load()) }

// view is what a query may have seen of the public table. Other workers
// add targets while the query is in flight, so the server's snapshot S
// is only bracketed: base ∪ adds[0:sure] ⊆ S ⊆ base ∪ adds[0:maybe],
// with sure read before the request is written and maybe after the
// response is decoded.
type view struct {
	log         *targetLog
	sure, maybe int
}

// lookup resolves a target ID to its true position, if the query could
// have seen it.
func (v view) lookup(id int64) (casper.Point, bool) {
	base := int64(len(v.log.w.targets))
	switch {
	case id < 0:
		return casper.Point{}, false
	case id < base:
		return v.log.w.targets[id].Pos, true
	case id < base+int64(v.maybe):
		return v.log.adds[id-base].Pos, true
	}
	return casper.Point{}, false
}

// eachSure visits every target the query must have seen.
func (v view) eachSure(fn func(id int64, p casper.Point)) {
	for _, t := range v.log.w.targets {
		fn(t.ID, t.Pos)
	}
	for _, t := range v.log.adds[:v.sure] {
		fn(t.ID, t.Pos)
	}
}

// distEps absorbs float rounding between the harness's distances and the
// program's; coordinates are metres.
const distEps = 1e-6

// resolve checks that every returned object is a real target at its true
// position and returns the distances from pos, in response order.
func (v view) resolve(pos casper.Point, items []protocol.Object) ([]float64, error) {
	d := make([]float64, len(items))
	for i, it := range items {
		p, ok := v.lookup(it.ID)
		if !ok {
			return nil, fmt.Errorf("object %d is not a target the query could have seen", it.ID)
		}
		if it.Rect.MinX != p.X || it.Rect.MinY != p.Y || it.Rect.MaxX != p.X || it.Rect.MaxY != p.Y {
			return nil, fmt.Errorf("object %d returned at %+v, true position %v", it.ID, it.Rect, p)
		}
		d[i] = pos.Dist(p)
	}
	return d, nil
}

func hasID(items []protocol.Object, id int64) bool {
	return slices.ContainsFunc(items, func(it protocol.Object) bool { return it.ID == id })
}

// checkNN: the candidate list holds the refined answer, and no target the
// query must have seen is nearer than that answer.
func (v view) checkNN(pos casper.Point, res protocol.NNResult) error {
	if len(res.Candidates) == 0 {
		return fmt.Errorf("nn_public: empty candidate list")
	}
	if !hasID(res.Candidates, res.Exact.ID) {
		return fmt.Errorf("nn_public: exact answer %d is not in the candidate list", res.Exact.ID)
	}
	if _, err := v.resolve(pos, res.Candidates); err != nil {
		return fmt.Errorf("nn_public: %w", err)
	}
	d, err := v.resolve(pos, []protocol.Object{res.Exact})
	if err != nil {
		return fmt.Errorf("nn_public: %w", err)
	}
	best, bestID := math.Inf(1), int64(-1)
	v.eachSure(func(id int64, p casper.Point) {
		if dd := pos.Dist(p); dd < best {
			best, bestID = dd, id
		}
	})
	if d[0] > best+distEps {
		return fmt.Errorf("nn_public: answered %d at %.3f m, target %d is at %.3f m (in candidates: %v)",
			res.Exact.ID, d[0], bestID, best, hasID(res.Candidates, bestID))
	}
	return nil
}

// checkKNN: k answers in ascending order, and no target the query must
// have seen is nearer than the last answer without being an answer.
func (v view) checkKNN(pos casper.Point, items []protocol.Object, k int) error {
	if len(items) != k {
		return fmt.Errorf("knn_public: %d answers, want %d", len(items), k)
	}
	d, err := v.resolve(pos, items)
	if err != nil {
		return fmt.Errorf("knn_public: %w", err)
	}
	if !sort.Float64sAreSorted(d) {
		return fmt.Errorf("knn_public: answers not in ascending distance order: %v", d)
	}
	var miss error
	v.eachSure(func(id int64, p casper.Point) {
		if miss == nil && pos.Dist(p) < d[k-1]-distEps && !hasID(items, id) {
			miss = fmt.Errorf("knn_public: target %d at %.3f m is nearer than the last answer (%.3f m) and missing",
				id, pos.Dist(p), d[k-1])
		}
	})
	return miss
}

// checkRange: every target the query must have seen within r is
// returned, and nothing farther than r is.
func (v view) checkRange(pos casper.Point, items []protocol.Object, r float64) error {
	d, err := v.resolve(pos, items)
	if err != nil {
		return fmt.Errorf("range_public: %w", err)
	}
	for i, dd := range d {
		if dd > r+distEps {
			return fmt.Errorf("range_public: object %d at %.3f m is outside radius %.3f", items[i].ID, dd, r)
		}
	}
	got := make(map[int64]bool, len(items))
	for _, it := range items {
		got[it.ID] = true
	}
	var miss error
	v.eachSure(func(id int64, p casper.Point) {
		if miss == nil && pos.Dist(p) < r-distEps && !got[id] {
			miss = fmt.Errorf("range_public: target %d at %.3f m is within radius %.3f and missing", id, pos.Dist(p), r)
		}
	})
	return miss
}

// checkBuddy is structural only: over the wire the harness cannot map a
// pseudonym back to a user, so inclusiveness of buddy answers is measured
// in the traced pass (privacyqp.buddy_inclusive_frac), where it can.
func checkBuddy(res protocol.NNResult) error {
	if len(res.Candidates) == 0 {
		return fmt.Errorf("nn_buddy: empty candidate list")
	}
	if !hasID(res.Candidates, res.Exact.ID) {
		return fmt.Errorf("nn_buddy: exact answer %d is not in the candidate list", res.Exact.ID)
	}
	return nil
}
