// Package continuous adds continuous-query support to Casper. The
// paper evaluates snapshot queries and notes (Sec. 5) that continuous
// queries are obtained by integrating the framework "into any scalable
// and/or incremental location-based query processor (e.g. SINA)"; this
// package is that incremental processor, built in the SINA style:
//
//   - standing queries are themselves indexed spatially: every query's
//     interest region (the range rect, an NN query's extended area
//     A_EXT, a radius query's expanded cloak) lives in an R-tree, so a
//     data change is a spatial join against the queries it can affect;
//   - one mutex guards the whole monitor, and a batch (ApplyUpdates)
//     takes it once and notifies each query at most once;
//   - every data change is folded into the answers it touches as a
//     delta: a range count adds the difference of the object's old and
//     new contributions, and a candidate list drops or adds the one
//     target under privacyqp's admission rules (Admits, InRange). A
//     radius answer never needs more: its A_EXT depends on the cloak
//     alone. An NN answer re-runs Algorithm 2 only when the
//     change may alter its filter objects (Result.FiltersMayChange):
//     the target is a filter, or it arrives at most a filter's distance
//     from that filter's probe anchor. Otherwise a fresh evaluation
//     picks the same filters — the R-tree breaks distance ties by ID,
//     so the filters are a function of the table, not of the tree's
//     shape — hence the same A_EXT, and the list after the delta is
//     exactly its candidate list: minimal for those filters
//     (Theorem 4) and inclusive (Theorem 3);
//   - an asker's new cloak inside the cloak its query was last
//     evaluated at keeps the candidate list: a list inclusive for C is
//     inclusive for every C' inside C. Any other new cloak re-runs the
//     query at that cloak.
//
// The monitor keeps its own R-trees of the public and private tables
// and is driven by the same update stream the database server
// receives. A slot table per kind holds one item per stored object
// (slots.go); a standing candidate list is a list of 4-byte slots into
// it, built into items only when it is handed out.
// Every answer it maintains is what a fresh snapshot query at the
// query's evaluation cloak would return, and so stays inclusive for
// the asker's current cloak, which lies inside it (property-tested in
// monitor_test.go and fuzz_test.go); Evaluations() against Updates()
// quantifies the incremental savings.
//
// A subscriber is told what changed, not the whole answer, as in
// SINA's positive and negative updates: registration returns the full
// candidate list, and each CandidatesChanged event then carries the
// candidates that entered and the IDs that left since the previous
// event. A kept candidate that moves is not re-sent; Candidates returns
// the whole list with current rects, the resync for a subscriber that
// lost track.
//
// All methods are safe for concurrent use.
package continuous

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// QueryID identifies a registered continuous query.
type QueryID int64

// EventKind says what changed for a continuous query.
type EventKind int

const (
	// CountChanged reports a new count for a range-count query.
	CountChanged EventKind = iota
	// CandidatesChanged reports a change to the candidate list of an NN
	// or radius query.
	CandidatesChanged
)

// Event is a continuous-query notification.
type Event struct {
	Query QueryID
	Kind  EventKind
	// Count is the new value for CountChanged events.
	Count float64
	// Added and Dropped are the change to the candidate list for
	// CandidatesChanged events: the candidates that entered, with their
	// current rects (and public names), and the IDs of those that left.
	// Folded into the list the subscriber held, they give the new list,
	// which it refines client-side exactly as with snapshot queries. A
	// candidate that stays is not re-sent when it moves: its rect in
	// the subscriber's list may be stale, and Candidates returns the
	// current one. The two are disjoint, and at least one is non-empty.
	Added   []rtree.Item
	Dropped []int64
}

// Config tunes a Monitor. The zero value is usable: a default
// universe and inline notification.
type Config struct {
	// Universe is the spatial extent served: a query whose evaluation
	// fails watches all of it, so the first relevant change recovers
	// the query. Invalid or empty falls back to the 10000x10000
	// default.
	Universe geom.Rect

	// Notify receives every change event. With Buffer == 0 it runs
	// inline under the monitor lock and must not call back into the
	// Monitor; with Buffer > 0 it runs on a dedicated delivery
	// goroutine until Close.
	Notify func(Event)

	// Buffer > 0 queues events for asynchronous delivery, blocking
	// emitters only when the subscriber falls that many events behind.
	// Notify must not call back into the Monitor here either: a
	// re-entrant callback that blocks can deadlock emitters once the
	// buffer fills. Events emitted after Close are dropped.
	Buffer int
}

// Monitor is the continuous query processor.
//
// Lock order: mu -> emitMu. emitMu is only ever taken under mu or on
// its own (Close, QueueStats).
type Monitor struct {
	cfg Config // Universe normalized by NewMonitor

	// mu guards the tables, the query index and registry, and every
	// registered query's mutable state.
	mu   sync.Mutex
	pub  *rtree.Tree
	priv *rtree.Tree
	// pubSlots and privSlots number the objects of each tree; candidate
	// lists hold their slots.
	pubSlots, privSlots slotTable
	// qidx indexes the interest regions of the registered queries.
	qidx    *rtree.Tree
	queries map[QueryID]*query
	nextID  QueryID
	// pending lists the NN/radius queries the ingestion in progress
	// touched, and flips its candidate deltas; settleLocked empties
	// both.
	pending []*query
	flips   []flip
	// added and dropped collect the slots of one query's event before
	// emitDelta builds it; empty between events.
	added, dropped []int32

	// emitMu guards the delivery fields; emitters hold it shared so
	// Close cannot close the channel under a pending send.
	emitMu sync.RWMutex
	notify func(Event)
	events chan Event
	done   chan struct{}
	closed bool

	updates     atomic.Int64
	evaluations atomic.Int64
	safeHits    atomic.Int64
	queueHW     atomic.Int64

	nRange  atomic.Int64
	nNN     atomic.Int64
	nRadius atomic.Int64
}

type queryKind uint8

const (
	qRange queryKind = iota
	qNN
	qRadius
)

// query is one standing query of any kind, guarded by Monitor.mu.
type query struct {
	id       QueryID
	kind     queryKind
	dataKind privacyqp.DataKind

	// State of the ingestion in progress, reset by settleLocked:
	// touched queues the query in Monitor.pending, and rerun marks it to
	// re-run Algorithm 2.
	touched, rerun bool

	// interest is the indexed interest region: the rect for range
	// queries, A_EXT for NN, the evaluation cloak expanded by the
	// radius for radius queries.
	interest geom.Rect

	// range-count state
	rect   geom.Rect
	policy privacyqp.CountPolicy
	count  float64

	// nn / radius state
	cloak     geom.Rect // asker's current cloak (last reported)
	evalCloak geom.Rect // cloak of the last evaluation; contains cloak unless failed
	failed    bool      // the last evaluation failed: no list to keep
	radius    float64
	opt       privacyqp.Options
	// exclude is the asker's own pseudonym, hidden from private-data
	// evaluations (privacyqp.Without); negative means none.
	exclude int64
	// list is the candidate list as slots into the slot table of
	// dataKind. Deltas keep it equal to a fresh evaluation at
	// evalCloak.
	list []int32
	// res is the last evaluation without its candidates: A_EXT, and the
	// filters and probes that decide when a change needs a re-run
	// instead of a delta.
	res privacyqp.Result
}

// NewMonitor builds a monitor from a Config.
func NewMonitor(cfg Config) *Monitor {
	if u := cfg.Universe; !u.IsValid() || u.Width() <= 0 || u.Height() <= 0 {
		cfg.Universe = geom.R(0, 0, 10000, 10000)
	}
	m := &Monitor{
		cfg:       cfg,
		pub:       rtree.New(),
		priv:      rtree.New(),
		qidx:      rtree.New(),
		queries:   make(map[QueryID]*query),
		pubSlots:  newSlotTable(),
		privSlots: newSlotTable(),
		notify:    cfg.Notify,
	}
	if cfg.Buffer > 0 {
		m.events = make(chan Event, cfg.Buffer)
		m.done = make(chan struct{})
		go func(ch <-chan Event, notify func(Event)) {
			defer close(m.done)
			for e := range ch {
				m.noteQueueDepth(int64(len(ch)))
				if notify != nil {
					notify(e)
				}
			}
		}(m.events, cfg.Notify)
	}
	return m
}

// Close stops the asynchronous delivery goroutine after it drains the
// queued events, then returns. It is a no-op for monitors without a
// Buffer, and idempotent.
func (m *Monitor) Close() {
	m.emitMu.Lock()
	ch := m.events
	m.events = nil
	if ch != nil {
		m.closed = true
	}
	m.emitMu.Unlock()
	if ch != nil {
		close(ch)
		<-m.done
	}
}

// Updates returns how many data updates the monitor has processed.
func (m *Monitor) Updates() int64 { return m.updates.Load() }

// Evaluations returns how many full query re-evaluations those updates
// caused; Evaluations << Updates is the incremental win.
func (m *Monitor) Evaluations() int64 { return m.evaluations.Load() }

// SafeRegionHits returns how many cloak updates kept their candidate
// list because the new cloak lies inside the last evaluated one, so no
// re-evaluation ran.
func (m *Monitor) SafeRegionHits() int64 { return m.safeHits.Load() }

// QueryCounts returns how many standing queries of each kind are
// registered right now.
func (m *Monitor) QueryCounts() (rangeCount, nn, radius int) {
	return int(m.nRange.Load()), int(m.nNN.Load()), int(m.nRadius.Load())
}

// noteQueueDepth records the async delivery queue's instantaneous
// depth and folds it into the high-water mark (atomic max).
func (m *Monitor) noteQueueDepth(n int64) {
	monQueueDepth.Set(n)
	for {
		hw := m.queueHW.Load()
		if n <= hw {
			return
		}
		if m.queueHW.CompareAndSwap(hw, n) {
			monQueueHighWater.Set(n)
			return
		}
	}
}

// QueueStats returns the asynchronous delivery queue's current depth
// and its high-water mark since the monitor started. Both are 0 for
// monitors without a Buffer (inline notification).
func (m *Monitor) QueueStats() (depth, highWater int) {
	m.emitMu.Lock()
	ch := m.events
	m.emitMu.Unlock()
	if ch != nil {
		depth = len(ch)
	}
	return depth, int(m.queueHW.Load())
}

func (m *Monitor) noteUpdates(n int64) {
	m.updates.Add(n)
	contUpdates.Add(n)
}

func (m *Monitor) noteEval() {
	m.evaluations.Add(1)
	contEvaluations.Inc()
}

// RegisterRangeCount registers a continuous public range-count query
// over the private data and returns its current count.
func (m *Monitor) RegisterRangeCount(r geom.Rect, policy privacyqp.CountPolicy) (QueryID, float64, error) {
	if !r.IsValid() {
		return 0, 0, fmt.Errorf("continuous: invalid query region %v", r)
	}
	q := &query{kind: qRange, dataKind: privacyqp.PrivateData, rect: r, policy: policy}
	count, _, err := m.register(q)
	if err != nil {
		return 0, 0, err
	}
	m.nRange.Add(1)
	contQueriesRange.Add(1)
	return q.id, count, nil
}

// RegisterNN registers a continuous private nearest-neighbor query for
// an asker whose current cloak is given. kind selects public or
// private target data; excludeID (>= 0) hides the asker's own stored
// cloak from private-data evaluations, so the answer is the nearest
// other user's. It returns the initial candidate list.
func (m *Monitor) RegisterNN(cloak geom.Rect, kind privacyqp.DataKind, opt privacyqp.Options, excludeID int64) (QueryID, []rtree.Item, error) {
	q := &query{kind: qNN, dataKind: kind, cloak: cloak, opt: opt, exclude: excludeID}
	_, cands, err := m.register(q)
	if err != nil {
		return 0, nil, err
	}
	m.nNN.Add(1)
	contQueriesNN.Add(1)
	return q.id, cands, nil
}

// RegisterRadius registers a standing private range query: all
// targets within radius of the asker, maintained as her cloak and the
// data change. excludeID works as in RegisterNN. It returns the
// initial inclusive candidate list (refine client-side).
func (m *Monitor) RegisterRadius(cloak geom.Rect, radius float64, kind privacyqp.DataKind, excludeID int64) (QueryID, []rtree.Item, error) {
	q := &query{kind: qRadius, dataKind: kind, cloak: cloak, radius: radius, exclude: excludeID}
	_, cands, err := m.register(q)
	if err != nil {
		return 0, nil, err
	}
	m.nRadius.Add(1)
	contQueriesRadius.Add(1)
	return q.id, cands, nil
}

// register evaluates q, gives it an ID, and adds it to the registry
// and the query index. It returns the initial count and the
// evaluation's own candidate list: once registered, a concurrent
// ingestion may mutate q's answer fields, so the caller must not read
// them after register returns.
func (m *Monitor) register(q *query) (count float64, candidates []rtree.Item, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	candidates, err = m.evalQueryLocked(q)
	if err != nil {
		return 0, nil, err
	}
	m.noteEval()
	m.nextID++
	q.id = m.nextID
	m.queries[q.id] = q
	m.qidx.Insert(rtree.Item{Rect: q.interest, ID: int64(q.id)})
	return q.count, candidates, nil
}

// Unregister removes a continuous query of any kind.
func (m *Monitor) Unregister(id QueryID) bool {
	m.mu.Lock()
	q, ok := m.queries[id]
	if ok {
		delete(m.queries, id)
		m.qidx.Delete(int64(id), q.interest)
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	switch q.kind {
	case qRange:
		m.nRange.Add(-1)
		contQueriesRange.Add(-1)
	case qNN:
		m.nNN.Add(-1)
		contQueriesNN.Add(-1)
	case qRadius:
		m.nRadius.Add(-1)
		contQueriesRadius.Add(-1)
	}
	return true
}

// Count returns the maintained count of a range query.
func (m *Monitor) Count(id QueryID) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.lookup(id, qRange)
	if q == nil {
		return 0, false
	}
	return q.count, true
}

// Candidates returns the maintained candidate list of an NN or
// standing radius query.
func (m *Monitor) Candidates(id QueryID) ([]rtree.Item, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queries[id]
	if q == nil || q.kind == qRange {
		return nil, false
	}
	return m.slots(q.dataKind).itemsOf(q.list), true
}

// UpdateNNCloak moves a continuous NN query's asker: an unchanged
// cloak, or one inside the cloak the query was last evaluated at, is a
// counter bump; any other cloak re-evaluates and notifies subscribers
// of the change to the candidate list, if any.
func (m *Monitor) UpdateNNCloak(id QueryID, cloak geom.Rect) error {
	return m.updateCloak(id, cloak, qNN)
}

// UpdateRadiusCloak moves a standing radius query's asker; the same
// containment rule as UpdateNNCloak applies.
func (m *Monitor) UpdateRadiusCloak(id QueryID, cloak geom.Rect) error {
	return m.updateCloak(id, cloak, qRadius)
}

func (m *Monitor) updateCloak(id QueryID, cloak geom.Rect, kind queryKind) error {
	m.noteUpdates(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.lookup(id, kind)
	if q == nil {
		return fmt.Errorf("continuous: unknown query %d", id)
	}
	if q.cloak == cloak {
		return nil
	}
	q.cloak = cloak
	if !q.failed && q.evalCloak.ContainsRect(cloak) {
		// A list inclusive for the evaluated cloak is inclusive for
		// every cloak inside it: counter bump, no re-evaluation, no
		// event.
		m.safeHits.Add(1)
		contSafeHits.Inc()
		return nil
	}
	m.rerunLocked(q, nil)
	m.emitDelta(q)
	return nil
}

// lookup returns the registered query id if it has the given kind.
// Caller holds mu.
func (m *Monitor) lookup(id QueryID, kind queryKind) *query {
	q := m.queries[id]
	if q == nil || q.kind != kind {
		return nil
	}
	return q
}

// emit dispatches an event: inline for synchronous monitors, queued
// for buffered ones. Called with mu held; a queued send may block for
// backpressure, which is safe because the delivery goroutine never
// touches the monitor lock.
func (m *Monitor) emit(e Event) {
	m.emitMu.RLock()
	defer m.emitMu.RUnlock()
	if m.closed {
		monEventsDropped.Inc()
		return
	}
	monEvents.Inc()
	if m.events != nil {
		m.events <- e
		m.noteQueueDepth(int64(len(m.events)))
		return
	}
	if m.notify != nil {
		m.notify(e)
	}
}

// sortOps orders a batch by pid (ties: input order), which fixes the
// order a batch's events are emitted in and lets duplicate pids
// collapse to their last occurrence.
func sortOps(ops []applyOp) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pid < ops[j].pid })
}
