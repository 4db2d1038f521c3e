// Package continuous adds continuous-query support to Casper. The
// paper evaluates snapshot queries and notes (Sec. 5) that continuous
// queries are obtained by integrating the framework "into any scalable
// and/or incremental location-based query processor (e.g. SINA)"; this
// package is that incremental processor, built in the SINA style:
//
//   - standing queries are themselves indexed spatially: every query's
//     interest region (the range rect, an NN query's extended area
//     A_EXT, a radius query's expanded cloak) lives in an R-tree, so a
//     location update is a spatial join against the queries it can
//     affect — O(matches) index probes per update, not O(Q);
//   - one mutex guards the whole monitor, and a batch (ApplyUpdates)
//     takes it once: it applies every update, then re-evaluates each
//     query the batch touched exactly once;
//   - range-count queries over private data are maintained purely
//     incrementally: an object update adjusts each affected query's
//     count by the difference of its old and new contribution — no
//     re-evaluation ever;
//   - nearest-neighbor and radius queries keep a safe region (after
//     Hashem, Kulik & Zhang, "Privacy Preserving Moving KNN Queries"):
//     the region within which the current candidate list provably
//     stays valid, derived from the distance-to-the-nearest-excluded-
//     target slack (the (k+1)-th-neighbor argument) plus an optional
//     cloak inflation. A moving asker whose new cloak stays inside the
//     safe region costs a counter bump; only a region exit (or a data
//     change inside the interest region) triggers re-evaluation.
//
// The monitor owns shadow copies of the public and private tables and
// is driven by the same update stream the database server receives.
// Every answer it maintains is what a fresh snapshot query at the
// query's evaluation cloak would return, and remains inclusive for any
// asker position inside the safe region (property-tested in
// monitor_test.go); Evaluations() against Updates() quantifies the
// incremental savings.
//
// All methods are safe for concurrent use.
package continuous

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// CandidatesChanged reports a new candidate list for an NN query.
	CandidatesChanged
)

// Event is a continuous-query notification.
type Event struct {
	Query QueryID
	Kind  EventKind
	// Count is the new value for CountChanged events.
	Count float64
	// Candidates is the new candidate list for CandidatesChanged
	// events; the subscriber refines it client-side exactly as with
	// snapshot queries.
	Candidates []rtree.Item
}

// Config tunes a Monitor. The zero value is usable: a default
// universe, inline notification, safe regions at their exact setting.
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

	// SafeRegionFrac tunes moving-asker safe regions:
	//
	//	  0  exact: evaluate at the cloak itself; skip re-evaluation
	//	     only while the new cloak stays inside the derived
	//	     candidate-validity region (cloak containment + the
	//	     distance-to-excluded-target slack);
	//	> 0  inflate the evaluation cloak by this fraction of its
	//	     longer side before evaluating, widening the safe region at
	//	     the price of a slightly larger (still inclusive) candidate
	//	     list. 1.0 absorbs a full adjacent pyramid cell per side.
	//
	// Negative values act as 0.
	SafeRegionFrac float64
}

// Monitor is the continuous query processor.
//
// Lock order: mu -> emitMu. emitMu is only ever taken under mu or on
// its own (Close, QueueStats).
type Monitor struct {
	cfg Config // Universe normalized by NewMonitor

	// mu guards the shadow tables, the query index and registry, and
	// every registered query's mutable state.
	mu   sync.Mutex
	pub  *rtree.Tree
	priv *rtree.Tree
	// qidx indexes the interest regions of the registered queries.
	qidx    *rtree.Tree
	queries map[QueryID]*query
	nextID  QueryID
	// regions maps each stored pseudonym to its current cloak.
	regions map[int64]geom.Rect

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
	applyTicks  atomic.Int64
	applyNanos  atomic.Int64
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

	// dirty marks a query already queued for re-evaluation by the
	// ingestion in progress, so each query re-evaluates once per batch.
	dirty bool

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
	evalCloak geom.Rect // (possibly inflated) cloak of the last evaluation
	safe      geom.Rect // candidate list provably valid while cloak stays inside
	hasSafe   bool
	radius    float64
	opt       privacyqp.Options
	// exclude is the asker's own pseudonym, hidden from private-data
	// evaluations (privacyqp.Without); negative means none.
	exclude    int64
	candidates []rtree.Item
	candIDs    map[int64]bool
}

// NewMonitor builds a monitor from a Config.
func NewMonitor(cfg Config) *Monitor {
	if u := cfg.Universe; !u.IsValid() || u.Width() <= 0 || u.Height() <= 0 {
		cfg.Universe = geom.R(0, 0, 10000, 10000)
	}
	m := &Monitor{
		cfg:     cfg,
		pub:     rtree.New(),
		priv:    rtree.New(),
		qidx:    rtree.New(),
		queries: make(map[QueryID]*query),
		regions: make(map[int64]geom.Rect),
		notify:  cfg.Notify,
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

// New builds a monitor with inline notification. notify is called
// synchronously under the monitor lock, so it must not call back into
// the Monitor (queue if needed). A nil notify is allowed.
func New(notify func(Event)) *Monitor {
	return NewMonitor(Config{Notify: notify})
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

// SafeRegionHits returns how many cloak updates were absorbed by a
// safe region: the candidate list was provably still valid, so no
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

// ApplyStats returns how many apply ticks have run and their
// cumulative wall time. An apply tick is one private-update batch
// through applyPrivate; it runs single-threaded, so total/ticks is the
// per-tick CPU cost the ROADMAP tracks.
func (m *Monitor) ApplyStats() (ticks int64, total time.Duration) {
	return m.applyTicks.Load(), time.Duration(m.applyNanos.Load())
}

// QueueStats returns the asynchronous delivery queue's current depth
// and its high-water mark since the monitor started. Both are 0 for
// monitors built with New (inline notification).
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
// and the query index. It returns the initial count and candidate list
// read under the lock: once registered, a concurrent ingestion may
// mutate q.count or swap q.candidates, so the caller must not read q's
// answer fields after register returns.
func (m *Monitor) register(q *query) (count float64, candidates []rtree.Item, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.evalQueryLocked(q); err != nil {
		return 0, nil, err
	}
	m.noteEval()
	m.nextID++
	q.id = m.nextID
	m.queries[q.id] = q
	m.qidx.Insert(rtree.Item{Rect: q.interest, ID: int64(q.id)})
	return q.count, q.candidates, nil
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
	return append([]rtree.Item(nil), q.candidates...), true
}

// UpdateNNCloak moves a continuous NN query's asker: an unchanged
// cloak, or one still inside the query's safe region, is a counter
// bump; only a safe-region exit re-evaluates and notifies subscribers
// of the new candidate list.
func (m *Monitor) UpdateNNCloak(id QueryID, cloak geom.Rect) error {
	return m.updateCloak(id, cloak, qNN)
}

// UpdateRadiusCloak moves a standing radius query's asker; the same
// safe-region rule as UpdateNNCloak applies.
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
	if q.hasSafe && q.safe.ContainsRect(cloak) {
		// The candidate list is still inclusive for every position in
		// the new cloak: pure counter bump, no re-evaluation, no event.
		m.safeHits.Add(1)
		contSafeHits.Inc()
		return nil
	}
	m.reevalLocked(q)
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

// contribution is the amount a cloaked region adds to a range count
// under the policy.
func contribution(region, query geom.Rect, policy privacyqp.CountPolicy) float64 {
	switch policy {
	case privacyqp.CountAnyOverlap:
		if region.Intersects(query) {
			return 1
		}
	case privacyqp.CountCenterIn:
		if query.Contains(region.Center()) {
			return 1
		}
	case privacyqp.CountFractional:
		return geom.OverlapFraction(region, query)
	}
	return 0
}

func sameIDSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// sortOps orders a batch by pid (ties: input order), which fixes the
// order a batch's events are emitted in and lets duplicate pids
// collapse to their last occurrence.
func sortOps(ops []applyOp) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pid < ops[j].pid })
}
