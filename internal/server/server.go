// Package server implements the privacy-aware location-based database
// server of the Casper architecture (Fig. 1 of the paper): the
// component that stores public objects (exact points — gas stations,
// hospitals, police cars) and private objects (cloaked rectangles
// received from the location anonymizer, keyed by pseudonym), and
// answers the three novel query types through the embedded
// privacy-aware query processor:
//
//   - private queries over public data (Sec. 5.1),
//   - public queries over private data (Sec. 5),
//   - private queries over private data (Sec. 5.2).
//
// The server never sees exact user locations or user identities; the
// anonymizer forwards only (pseudonym, cloaked region) pairs.
//
// All methods are safe for concurrent use. Queries never block behind
// location updates: the spatial indexes are published as immutable
// snapshots (see indexSnapshot), so the query hot path acquires zero
// mutexes — a single atomic pointer load pins a consistent view of
// both tables for the query's duration.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
	"casper/internal/trace"
	"casper/internal/wal"
)

// PublicObject is an exact-location object in the public table.
type PublicObject struct {
	ID   int64
	Pos  geom.Point
	Name string
}

// PrivateObject is a cloaked object in the private table. The ID is a
// pseudonym assigned by the anonymizer; the server cannot link it to a
// real user.
type PrivateObject struct {
	ID     int64
	Region geom.Rect
}

// Errors returned by the server.
var (
	ErrUnknownObject   = errors.New("server: unknown object")
	ErrDuplicateObject = errors.New("server: object already exists")
)

// indexSnapshot is one immutable, consistent view of both spatial
// tables. Writers never mutate a published snapshot: they clone the
// tree they are changing (O(1): the clone shares every node, and a
// write copies only the nodes on its path), apply the whole batch to
// the clone, and publish a new snapshot with a single atomic store
// (RCU). Readers that loaded an older snapshot keep traversing it
// safely; the Go garbage collector provides the grace period — an old
// snapshot is reclaimed when the last query holding it returns.
type indexSnapshot struct {
	public  *rtree.Tree
	private *rtree.Tree
	// pubVersion stamps the public table for the query cache;
	// privVersion exists for diagnostics and tests (every private
	// batch bumps it).
	pubVersion  int64
	privVersion int64
	// published is when this snapshot became current (drives the
	// casper_snapshot_age_seconds gauge).
	published time.Time
}

// Server is the location-based database server.
type Server struct {
	// writeMu serializes writers. Queries NEVER take it — they load
	// snap and run against the immutable trees it points to.
	writeMu sync.Mutex

	// log, when non-nil, is the write-ahead log (see OpenPersistent);
	// nil means in-memory. Writers validate, append, apply and publish
	// all under writeMu, so the log holds exactly the accepted writes in
	// the order they were applied.
	log *wal.Log

	// snap is the current index snapshot; the only synchronization on
	// the query hot path is this pointer's atomic load.
	snap atomic.Pointer[indexSnapshot]

	// idxMu guards the id → object lookup maps against Get* readers.
	// Spatial queries do not touch them. Only writers change them, under
	// writeMu, so a writer reads them (to refuse a duplicate or unknown
	// id before logging) with writeMu alone and takes idxMu to mutate.
	idxMu   sync.RWMutex
	pubIdx  map[int64]PublicObject
	privIdx map[int64]PrivateObject

	// queries counts processed private queries (diagnostics).
	queries atomic.Int64

	// lastWriteAttempt is the UnixNano timestamp of the most recent
	// mutation attempt (successful or not). Readiness probes compare
	// it against the published snapshot's time: a snapshot older than
	// the staleness bound is only unhealthy if a write has been
	// attempted since it was published — an idle server aging
	// gracefully is fine.
	lastWriteAttempt atomic.Int64

	// cache memoizes public-table candidate lists, validated against
	// the snapshot's pubVersion.
	cache *queryCache
}

// New returns an empty server.
func New() *Server {
	s := &Server{
		pubIdx:  make(map[int64]PublicObject),
		privIdx: make(map[int64]PrivateObject),
		cache:   newQueryCache(4096),
	}
	s.snap.Store(&indexSnapshot{
		public:    rtree.New(),
		private:   rtree.New(),
		published: time.Now(),
	})
	registerServerGauges(s)
	return s
}

// publish installs next as the current snapshot. Callers hold writeMu
// and have already stamped versions; publish adds the timestamp and
// the metric.
func (s *Server) publish(next *indexSnapshot) {
	next.published = time.Now()
	s.snap.Store(next)
	snapshotPublishes.Inc()
}

// noteWrite records that a mutation is being attempted; called at the
// entry of every write path, before anything can fail.
func (s *Server) noteWrite() {
	s.lastWriteAttempt.Store(time.Now().UnixNano())
}

// SnapshotStale reports whether the current snapshot is older than
// bound with a write attempted since it was published — the signal
// that the write path is wedged rather than merely idle. The returned
// duration is the snapshot's age either way. bound <= 0 disables the
// check.
func (s *Server) SnapshotStale(bound time.Duration) (bool, time.Duration) {
	snap := s.snap.Load()
	age := time.Since(snap.published)
	if bound <= 0 || age <= bound {
		return false, age
	}
	return s.lastWriteAttempt.Load() > snap.published.UnixNano(), age
}

// LoadPublic bulk-loads the public table, replacing its contents.
// Use at startup; incremental changes go through AddPublic. With a log
// attached the log is then compacted to the new state, so an error
// means the load is live in memory but not durable.
func (s *Server) LoadPublic(objs []PublicObject) error {
	s.noteWrite()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	items := make([]rtree.Item, len(objs))
	pubIdx := make(map[int64]PublicObject, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Rect: geom.Rect{Min: o.Pos, Max: o.Pos}, ID: o.ID, Data: o.Name}
		pubIdx[o.ID] = o
	}
	s.idxMu.Lock()
	s.pubIdx = pubIdx
	s.idxMu.Unlock()
	cur := s.snap.Load()
	s.publish(&indexSnapshot{
		public:      rtree.BulkLoad(items),
		private:     cur.private,
		pubVersion:  cur.pubVersion + 1,
		privVersion: cur.privVersion,
	})
	return s.compactLocked()
}

// AddPublic inserts one public object.
func (s *Server) AddPublic(o PublicObject) error {
	s.noteWrite()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if _, ok := s.pubIdx[o.ID]; ok {
		return fmt.Errorf("%w: public %d", ErrDuplicateObject, o.ID)
	}
	if err := s.logLocked(nil, publicAddRecord(o)); err != nil {
		return err
	}
	s.idxMu.Lock()
	s.pubIdx[o.ID] = o
	s.idxMu.Unlock()
	cur := s.snap.Load()
	pub := cur.public.Clone()
	pub.Insert(rtree.Item{Rect: geom.Rect{Min: o.Pos, Max: o.Pos}, ID: o.ID, Data: o.Name})
	s.publish(&indexSnapshot{
		public:      pub,
		private:     cur.private,
		pubVersion:  cur.pubVersion + 1,
		privVersion: cur.privVersion,
	})
	return nil
}

// RemovePublic deletes a public object.
func (s *Server) RemovePublic(id int64) error {
	s.noteWrite()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	o, ok := s.pubIdx[id]
	if !ok {
		return fmt.Errorf("%w: public %d", ErrUnknownObject, id)
	}
	if err := s.logLocked(nil, wal.Record{Type: wal.PublicRemove, ID: id}); err != nil {
		return err
	}
	s.idxMu.Lock()
	delete(s.pubIdx, id)
	s.idxMu.Unlock()
	cur := s.snap.Load()
	pub := cur.public.Clone()
	pub.Delete(id, geom.Rect{Min: o.Pos, Max: o.Pos})
	s.publish(&indexSnapshot{
		public:      pub,
		private:     cur.private,
		pubVersion:  cur.pubVersion + 1,
		privVersion: cur.privVersion,
	})
	return nil
}

// UpsertPrivate stores or refreshes the cloaked region of one private
// object: a batch of one.
func (s *Server) UpsertPrivate(o PrivateObject) error {
	return s.UpsertPrivateBatchTraced([]PrivateObject{o}, nil)
}

// UpsertPrivateBatch is UpsertPrivateBatchTraced without a trace.
func (s *Server) UpsertPrivateBatch(objs []PrivateObject) error {
	return s.UpsertPrivateBatchTraced(objs, nil)
}

// UpsertPrivateBatchTraced stores or refreshes many cloaked regions:
// the server-side effect of every location update a mobile user sends
// through the anonymizer, and the server's only private write path.
// The whole batch is validated up front, so a bad region rejects it
// before anything is logged or applied. It is then logged, applied to
// one clone of the private tree and published as one snapshot: each
// entry copies the O(height) nodes on its delete and insert paths, and
// a node copied once is mutated in place for the rest of the batch.
// Within a batch, a later entry for the same ID wins. "wal_append" and
// "store" spans are recorded into tr when it is non-nil.
func (s *Server) UpsertPrivateBatchTraced(objs []PrivateObject, tr *trace.Trace) error {
	for _, o := range objs {
		if !o.Region.IsValid() {
			return fmt.Errorf("server: invalid cloaked region %v for %d", o.Region, o.ID)
		}
	}
	if len(objs) == 0 {
		return nil
	}
	s.noteWrite()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.logLocked(tr, privateUpsertRecords(objs)...); err != nil {
		return err
	}
	sp := tr.StartSpan("store")
	cur := s.snap.Load()
	priv := cur.private.Clone()
	s.idxMu.Lock()
	for _, o := range objs {
		if old, ok := s.privIdx[o.ID]; ok {
			priv.Delete(o.ID, old.Region)
		}
		s.privIdx[o.ID] = o
		priv.Insert(rtree.Item{Rect: o.Region, ID: o.ID})
	}
	s.idxMu.Unlock()
	s.publish(&indexSnapshot{
		public:      cur.public,
		private:     priv,
		pubVersion:  cur.pubVersion,
		privVersion: cur.privVersion + 1,
	})
	sp.End()
	return nil
}

// RemovePrivate deletes a private object (user quit).
func (s *Server) RemovePrivate(id int64) error {
	s.noteWrite()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	o, ok := s.privIdx[id]
	if !ok {
		return fmt.Errorf("%w: private %d", ErrUnknownObject, id)
	}
	if err := s.logLocked(nil, wal.Record{Type: wal.PrivateRemove, ID: id}); err != nil {
		return err
	}
	s.idxMu.Lock()
	delete(s.privIdx, id)
	s.idxMu.Unlock()
	cur := s.snap.Load()
	priv := cur.private.Clone()
	priv.Delete(id, o.Region)
	s.publish(&indexSnapshot{
		public:      cur.public,
		private:     priv,
		pubVersion:  cur.pubVersion,
		privVersion: cur.privVersion + 1,
	})
	return nil
}

// PublicCount returns the public table size.
func (s *Server) PublicCount() int {
	return s.snap.Load().public.Len()
}

// PrivateCount returns the number of stored private objects.
func (s *Server) PrivateCount() int {
	return s.snap.Load().private.Len()
}

// Queries returns the number of private queries processed.
func (s *Server) Queries() int64 { return s.queries.Load() }

// NNPublic answers a private nearest-neighbor query over the public
// table: only the cloaked region of the asker is known. The result's
// candidate list is inclusive and minimal (Theorems 1-2).
// Cached results share their candidate slices across callers; treat
// them as read-only.
func (s *Server) NNPublic(cloak geom.Rect, opt privacyqp.Options) (privacyqp.Result, error) {
	start := time.Now()
	s.queries.Add(1)
	snap := s.snap.Load()
	tr := opt.Trace
	csp := tr.StartSpan("cache_lookup")
	key := cacheKey{region: cloak, filters: opt.Filters, k: 1}
	computed := false
	res, err := s.cache.do(key, snap.pubVersion, tr, func() (privacyqp.Result, error) {
		computed = true
		return privacyqp.PrivateNN(snap.public, cloak, privacyqp.PublicData, opt)
	})
	if tr != nil {
		csp.End(trace.Str("outcome", cacheOutcome(computed)),
			trace.Int("pub_version", snap.pubVersion),
			trace.Int("candidates", int64(len(res.Candidates))))
	}
	qiNNPublic.observe(start, len(res.Candidates), err)
	return res, err
}

// cacheOutcome names a cache_lookup span's result: "miss" when this
// caller ran the compute (leader or error-fallback), "hit" when a
// cached or single-flight-shared result was served.
func cacheOutcome(computed bool) string {
	if computed {
		return "miss"
	}
	return "hit"
}

// NNPrivate answers a private nearest-neighbor query over the private
// table (e.g. "nearest buddy"). excludeID hides the asker's own stored
// cloak from the query (privacyqp.Without); pass a negative value to
// keep everything.
func (s *Server) NNPrivate(cloak geom.Rect, excludeID int64, opt privacyqp.Options) (privacyqp.Result, error) {
	start := time.Now()
	s.queries.Add(1)
	db := privacyqp.Without(s.snap.Load().private, excludeID)
	res, err := privacyqp.PrivateNN(db, cloak, privacyqp.PrivateData, opt)
	qiNNPrivate.observe(start, len(res.Candidates), err)
	return res, err
}

// KNNPublic answers a private k-nearest-neighbor query over the
// public table: the candidate list contains the k nearest targets for
// every possible user position in the cloak.
func (s *Server) KNNPublic(cloak geom.Rect, k int, opt privacyqp.Options) (privacyqp.Result, error) {
	start := time.Now()
	s.queries.Add(1)
	snap := s.snap.Load()
	tr := opt.Trace
	csp := tr.StartSpan("cache_lookup")
	key := cacheKey{region: cloak, filters: opt.Filters, k: k}
	computed := false
	res, err := s.cache.do(key, snap.pubVersion, tr, func() (privacyqp.Result, error) {
		computed = true
		return privacyqp.PrivateKNN(snap.public, cloak, k, privacyqp.PublicData, opt)
	})
	if tr != nil {
		csp.End(trace.Str("outcome", cacheOutcome(computed)),
			trace.Int("pub_version", snap.pubVersion),
			trace.Int("candidates", int64(len(res.Candidates))))
	}
	qiKNNPublic.observe(start, len(res.Candidates), err)
	return res, err
}

// RangePublic answers a private range query over the public table.
func (s *Server) RangePublic(cloak geom.Rect, radius float64) (privacyqp.Result, error) {
	start := time.Now()
	s.queries.Add(1)
	snap := s.snap.Load()
	res, err := privacyqp.PrivateRange(snap.public, cloak, radius, privacyqp.PublicData)
	qiRange.observe(start, len(res.Candidates), err)
	return res, err
}

// CountPrivate answers a public range query over the private table:
// how many mobile users are in region r, under the given policy.
func (s *Server) CountPrivate(r geom.Rect, policy privacyqp.CountPolicy) (float64, error) {
	return privacyqp.PublicRangeCount(s.snap.Load().private, r, policy)
}

// DensityPrivate computes the n x n expected-count density grid of the
// private table over the given universe (see privacyqp.DensityGrid).
func (s *Server) DensityPrivate(universe geom.Rect, n int) ([][]float64, error) {
	return privacyqp.DensityGrid(s.snap.Load().private, universe, n)
}

// ListPrivateIn lists the cloaked objects overlapping region r by at
// least minOverlap of their area.
func (s *Server) ListPrivateIn(r geom.Rect, minOverlap float64) ([]rtree.Item, error) {
	return privacyqp.PublicRangeObjects(s.snap.Load().private, r, minOverlap)
}

// CacheStats returns the public-query cache's (hits, misses).
func (s *Server) CacheStats() (int64, int64) { return s.cache.stats() }

// PublicItems snapshots the public table as index items (used to seed
// the continuous monitor).
func (s *Server) PublicItems() []rtree.Item {
	return s.snap.Load().public.All()
}

// PrivateItems snapshots the private table as index items: the stored
// cloaks under their pseudonyms, exactly as queries see them. The
// continuous monitor seeds its shadow table from this snapshot so both
// sides start from the same stored regions.
func (s *Server) PrivateItems() []rtree.Item {
	return s.snap.Load().private.All()
}

// GetPublic looks up a public object by ID.
func (s *Server) GetPublic(id int64) (PublicObject, bool) {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	o, ok := s.pubIdx[id]
	return o, ok
}

// GetPrivate looks up a private object by pseudonym.
func (s *Server) GetPrivate(id int64) (PrivateObject, bool) {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	o, ok := s.privIdx[id]
	return o, ok
}
