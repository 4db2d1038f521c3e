// Package core wires the two Casper components — the location
// anonymizer and the privacy-aware location-based database server —
// into the end-to-end framework of Fig. 1 in the paper:
//
//	mobile user --exact location--> location anonymizer
//	location anonymizer --(pseudonym, cloaked region)--> database server
//	database server --candidate list--> user (via the anonymizer)
//	user refines the exact answer locally
//
// The package also carries the paper's transmission-cost model (64-byte
// records over a 100 Mbps channel, Sec. 6.3) and produces the
// end-to-end time breakdown of Fig. 17: cloaking time + query
// processing time + candidate-list transmission time.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/geom"
	"casper/internal/metrics"
	"casper/internal/privacyobs"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
	"casper/internal/server"
	"casper/internal/trace"
)

// Sentinel errors returned by the framework API. They are stable: wrap
// them freely, and test with errors.Is — the protocol layer maps each
// to a wire error code so the same errors.Is checks work through a
// ProtocolClient round trip.
var (
	// ErrAlreadyRegistered reports a RegisterUser for an ID that is
	// already registered.
	ErrAlreadyRegistered = errors.New("core: user already registered")
	// ErrNotRegistered reports an operation on a user ID the
	// anonymizer does not know.
	ErrNotRegistered = errors.New("core: user not registered")
	// ErrMonitorDisabled reports a continuous-query operation before
	// EnableContinuous.
	ErrMonitorDisabled = errors.New("core: continuous monitoring not enabled")
	// ErrEmptyCandidates reports a private query whose candidate list
	// came back empty (e.g. no public objects loaded).
	ErrEmptyCandidates = errors.New("core: empty candidate list")
	// ErrNoBuddies reports a buddy query with no other users to answer
	// it.
	ErrNoBuddies = errors.New("core: no other users to answer the buddy query")
	// ErrBudgetExhausted reports a cloak refused because the user's
	// cumulative ε spend had reached the configured per-user budget
	// ceiling (see privacyobs). The refused cloak was cut and then
	// discarded unreleased. Retryable in the operational sense: the
	// request succeeds again once an operator raises or clears the
	// ceiling.
	ErrBudgetExhausted = errors.New("core: privacy budget exhausted")
)

// userErr translates the anonymizer's identity errors into the core
// API's sentinel errors, keeping the underlying detail in the chain.
func userErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, anonymizer.ErrUnknownUser):
		return fmt.Errorf("%w: %v", ErrNotRegistered, err)
	case errors.Is(err, anonymizer.ErrDuplicateUser):
		return fmt.Errorf("%w: %v", ErrAlreadyRegistered, err)
	}
	return err
}

// srvErr translates server-side query failures into the core API's
// sentinel errors: a database with no target objects is an empty
// candidate list as far as callers are concerned.
func srvErr(err error) error {
	if errors.Is(err, privacyqp.ErrNoTargets) {
		return fmt.Errorf("%w: %v", ErrEmptyCandidates, err)
	}
	return err
}

// Names of the privacy backends in the anonymizer's backend table
// (anonymizer.Backends); Config.Backend takes one of them.
const (
	// BasicBackend is the complete-pyramid anonymizer (Sec. 4.1).
	BasicBackend = "basic"
	// AdaptiveBackend is the incomplete-pyramid anonymizer
	// (Sec. 4.2) — the variant the end-to-end experiments use.
	AdaptiveBackend = "adaptive"
	// ClusterBackend is Yao et al.-style group-formation cloaking.
	ClusterBackend = "cluster"
	// GeoIndBackend is geo-indistinguishability via planar Laplace
	// noise (perturbed-point mechanism).
	GeoIndBackend = "geoind"
)

// Config parameterizes a Casper deployment.
type Config struct {
	// Universe is the spatial extent served.
	Universe geom.Rect
	// PyramidLevels is the anonymizer's pyramid height H (9 in the
	// paper's experiments).
	PyramidLevels int
	// Backend selects the privacy backend by name ("basic",
	// "adaptive", "cluster" or "geoind"). Empty selects the adaptive
	// backend.
	Backend string
	// BackendEpsilon is the geoind backend's base privacy budget
	// (anonymizer.BackendConfig.Epsilon); zero means the backend
	// default.
	BackendEpsilon float64
	// BackendMinK floors every profile's k in the cluster backend
	// (anonymizer.BackendConfig.MinK); zero means no floor.
	BackendMinK int
	// Seed drives pseudonym generation and backend randomness.
	Seed int64
	// WALPath, when non-empty, makes the database server durable: all
	// public objects and cloaked regions are write-ahead logged there
	// and recovered on restart (see internal/wal). The log holds only
	// pseudonymous cloaks — persistence does not widen the privacy
	// boundary.
	WALPath string
}

// DefaultConfig mirrors the paper's experimental setup over a
// 40 km x 40 km universe.
func DefaultConfig() Config {
	return Config{
		Universe:      geom.R(0, 0, 40000, 40000),
		PyramidLevels: 9,
		Backend:       AdaptiveBackend,
		Seed:          1,
	}
}

// TransmissionModel is the analytic downlink model of Sec. 6.3.
type TransmissionModel struct {
	// RecordBytes is the wire size of one candidate record.
	RecordBytes int
	// BandwidthBps is the channel bandwidth in bits per second.
	BandwidthBps float64
}

// DefaultTransmission is the paper's model: 64-byte records over a
// 100 Mbps channel.
func DefaultTransmission() TransmissionModel {
	return TransmissionModel{RecordBytes: 64, BandwidthBps: 100e6}
}

// Time returns the time to ship n records.
func (m TransmissionModel) Time(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	bits := float64(n*m.RecordBytes) * 8
	return time.Duration(bits / m.BandwidthBps * float64(time.Second))
}

// TimeFor is Time dispatched on the cloaking mechanism. Candidates of
// a region query carry the geometry the client refines against (a
// rect for private targets, plus the identity payload); a
// perturbed-point query's candidates are bare points ranked against a
// single anchor, so they ship at half the record size.
func (m TransmissionModel) TimeFor(mech anonymizer.Mechanism, n int) time.Duration {
	if mech == anonymizer.MechPerturbed {
		half := m
		half.RecordBytes = (m.RecordBytes + 1) / 2
		return half.Time(n)
	}
	return m.Time(n)
}

// Breakdown is the per-query cost decomposition of Fig. 17.
type Breakdown struct {
	// Cloak is the time the anonymizer spent blurring the query
	// location.
	Cloak time.Duration
	// Query is the time the privacy-aware query processor spent
	// computing the candidate list.
	Query time.Duration
	// Transmit is the modeled time to ship the candidate list to the
	// client.
	Transmit time.Duration
	// Candidates is the candidate-list length.
	Candidates int
}

// Total returns the end-to-end time.
func (b Breakdown) Total() time.Duration { return b.Cloak + b.Query + b.Transmit }

// Casper is a running framework instance. Its methods take the role
// of the mobile client's library: they talk to the anonymizer with
// exact locations, let the server see only cloaked regions, and refine
// candidate lists client-side.
//
// Casper is safe for concurrent use. Queries (NearestPublic,
// NearestBuddy, KNearestPublic, RangePublic, CountUsersIn,
// UserDensityGrid) run in parallel with each other. Cloaking takes the
// live backend's lock (a read lock on the pyramid backends). The
// server then answers from one atomically loaded index snapshot and
// takes no lock, except that a public query consults that snapshot's
// candidate memo, whose sync.Mutex is held for one map operation and
// never across a computation. Mutations (RegisterUser, UpdateUser,
// SetProfile, DeregisterUser, the public-table editors, and Watch
// registration) take the backend's write lock and the server's writer
// mutex; a server write clones the trees it touches and publishes a
// new snapshot, so it never blocks a query already running on the old
// one. Concurrent updates to the same user are applied in some serial
// order; the cloak stored at the server is always one that was valid
// at some instant.
//
// The framework's own per-user state (pseudonyms, their generator, the
// monitor pointer and the watch lists) sits behind one RWMutex, mu. An
// update takes its read side twice: once for the pseudonym and once to
// hand the stored cloak to the monitor.
//
// A Casper value is a view: the state it operates on sits behind the
// embedded pointer, and Traced hands out further views of the same
// state that record spans into one request's trace. The instance New
// returns traces nothing.
type Casper struct {
	*state
	// tr receives the spans of every operation run through this view;
	// nil records nothing.
	tr *trace.Trace
}

// state is everything a Casper instance holds; all views of the
// instance share it.
type state struct {
	// backend is the live privacy backend plus its registry name,
	// swapped atomically by ReloadBackend so queries racing a hot
	// backend switch see a consistent (name, anonymizer) pair.
	backend atomic.Pointer[backendState]
	srv     *server.Server
	cfg     Config

	// mu guards the fields below. It is taken before the anonymizer,
	// privacy-observer, monitor and server locks, never under one.
	mu sync.RWMutex
	// pids maps each registered uid to its server pseudonym.
	pids    map[anonymizer.UserID]int64
	rng     *rand.Rand
	monitor *continuous.Monitor
	// watches lists each user's standing queries; a user without any
	// has no entry.
	watches map[anonymizer.UserID][]watch
}

// watch is one standing query a user registered: an NN watch, or a
// radius watch when radius is set.
type watch struct {
	id     continuous.QueryID
	radius bool
}

// New builds a Casper instance from the configuration, recovering the
// database server from cfg.WALPath when that is set (see internal/wal
// for the durability story). Only the server side is durable: users
// re-register with the anonymizer after a restart (their exact
// positions were never persisted anywhere — that is the point), and
// their recovered cloaks serve public queries meanwhile.
func New(cfg Config) (*Casper, error) {
	name := cfg.Backend
	if name == "" {
		name = anonymizer.DefaultBackend
	}
	anon, err := anonymizer.New(name, backendConfig(cfg))
	if err != nil {
		return nil, err
	}
	c := &Casper{state: &state{
		cfg:  cfg,
		pids: make(map[anonymizer.UserID]int64),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}}
	c.backend.Store(&backendState{name: name, anon: anon})
	metrics.SetBackendInfo(name)
	if cfg.WALPath == "" {
		c.srv = server.New()
	} else if c.srv, err = server.OpenPersistent(cfg.WALPath); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New for configurations that cannot fail — in-memory
// deployments with no WALPath — and panics otherwise. It keeps
// examples and tests terse.
func MustNew(cfg Config) *Casper {
	c, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("core: MustNew: %v", err))
	}
	return c
}

// Traced returns a view of c whose operations record spans into tr:
// cloaking, query processing, WAL persistence and index stores all
// record into it as they run. The view shares all of c's state, so a
// write through it is a write to c. A nil tr records nothing, which
// makes the view behave exactly like c. The view is valid for as long
// as tr is (until the request's trace is finished and published or
// recycled).
func (c *Casper) Traced(tr *trace.Trace) *Casper {
	return &Casper{state: c.state, tr: tr}
}

// Close shuts down the continuous monitor (when enabled) and flushes
// and closes the WAL (when persistence is configured).
func (c *Casper) Close() error {
	c.mu.Lock()
	mon := c.monitor
	c.monitor = nil
	c.mu.Unlock()
	if mon != nil {
		mon.Close()
	}
	return c.srv.Close()
}

// backendState pairs the live backend with its registry name so both
// swap in one atomic store.
type backendState struct {
	name string
	anon anonymizer.Anonymizer
}

// backendConfig assembles the factory config a backend is built from.
func backendConfig(cfg Config) anonymizer.BackendConfig {
	return anonymizer.BackendConfig{
		Universe: cfg.Universe,
		Levels:   cfg.PyramidLevels,
		Seed:     cfg.Seed,
		Epsilon:  cfg.BackendEpsilon,
		MinK:     cfg.BackendMinK,
	}
}

// anon returns the live backend.
func (c *Casper) anon() anonymizer.Anonymizer { return c.backend.Load().anon }

// Backend returns the registry name of the live privacy backend. It
// can differ from Config().Backend after a hot backend switch.
func (c *Casper) Backend() string { return c.backend.Load().name }

// ReloadBackend applies a (backend name, epsilon, minK) triple from a
// hot config reload; as in anonymizer.BackendConfig, epsilon 0 means
// DefaultEpsilon. Same name: the knobs are pushed into the live
// backend in place (backends ignore knobs they don't use). Different
// name: a fresh backend is built, every registered user's exact
// position and profile migrate into it, the pair swaps atomically,
// and every user's cloak is re-published so the server's stored
// regions match the new mechanism.
//
// The switch is an operator action, not a hot-path one: mutations
// racing the migration window may land only in the old backend, in
// which case the affected user reads ErrNotRegistered afterwards and
// re-registers — the same contract as a server restart (the
// anonymizer side was never durable by design).
func (c *Casper) ReloadBackend(name string, epsilon float64, minK int) error {
	if name == "" {
		name = anonymizer.DefaultBackend
	}
	if epsilon == 0 {
		epsilon = anonymizer.DefaultEpsilon
	}
	cur := c.backend.Load()
	if cur.name == name {
		if es, ok := cur.anon.(interface{ SetEpsilon(float64) error }); ok {
			if err := es.SetEpsilon(epsilon); err != nil {
				return err
			}
		}
		if ms, ok := cur.anon.(interface{ SetMinK(int) error }); ok {
			if err := ms.SetMinK(minK); err != nil {
				return err
			}
		}
		return nil
	}
	bcfg := backendConfig(c.cfg)
	bcfg.Epsilon, bcfg.MinK = epsilon, minK
	next, err := anonymizer.New(name, bcfg)
	if err != nil {
		return err
	}
	var migrateErr error
	cur.anon.ForEachUser(func(uid anonymizer.UserID, pos geom.Point, prof anonymizer.Profile) bool {
		migrateErr = next.Register(uid, pos, prof)
		return migrateErr == nil
	})
	if migrateErr != nil {
		return fmt.Errorf("core: backend switch to %q aborted: %w", name, migrateErr)
	}
	c.backend.Store(&backendState{name: name, anon: next})
	metrics.SetBackendInfo(name)
	// Re-publish every cloak under the new mechanism; an individual
	// unsatisfiable profile leaves that user's previous region in
	// place (same contract as a failed UpdateUser) and is reported.
	c.mu.RLock()
	uids := make([]anonymizer.UserID, 0, len(c.pids))
	for uid := range c.pids {
		uids = append(uids, uid)
	}
	c.mu.RUnlock()
	var pushErr error
	for _, uid := range uids {
		if err := c.pushCloak(uid); err != nil && pushErr == nil {
			pushErr = fmt.Errorf("core: backend switch to %q: re-cloak uid %d: %w", name, uid, err)
		}
	}
	return pushErr
}

// Anonymizer exposes the live backend (e.g. for experiment probes).
func (c *Casper) Anonymizer() anonymizer.Anonymizer { return c.anon() }

// Server exposes the database server.
func (c *Casper) Server() *server.Server { return c.srv }

// Config returns the configuration in use.
func (c *Casper) Config() Config { return c.cfg }

// LoadPublicObjects installs the public table (gas stations,
// restaurants, ...). Public data bypasses the anonymizer entirely.
//
// With persistence configured the WAL is compacted to the new state;
// a returned error means the load is live in memory but NOT durable —
// disk and memory have diverged, and the caller must decide whether
// to retry (Compact), fall back, or shut down.
func (c *Casper) LoadPublicObjects(objs []server.PublicObject) error {
	err := c.srv.LoadPublic(objs)
	// Keep the monitor in step even on a persistence failure: the
	// in-memory table did change, and live queries see it.
	if mon := c.Monitor(); mon != nil {
		mon.SetPublic(publicItems(objs))
	}
	return err
}

func publicItems(objs []server.PublicObject) []rtree.Item {
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Rect: geom.Rect{Min: o.Pos, Max: o.Pos}, ID: o.ID, Data: o.Name}
	}
	return items
}

// AddPublicObject inserts one public object, durably when a WAL is
// configured, and keeps the continuous monitor in step.
func (c *Casper) AddPublicObject(o server.PublicObject) error {
	if err := c.srv.AddPublic(o); err != nil {
		return err
	}
	if mon := c.Monitor(); mon != nil {
		mon.AddPublic(rtree.Item{Rect: geom.Rect{Min: o.Pos, Max: o.Pos}, ID: o.ID, Data: o.Name})
	}
	return nil
}

// RemovePublicObject removes a public object, durably when a WAL is
// configured.
func (c *Casper) RemovePublicObject(id int64) error {
	o, ok := c.srv.GetPublic(id)
	if !ok {
		return fmt.Errorf("%w: public %d", server.ErrUnknownObject, id)
	}
	if err := c.srv.RemovePublic(id); err != nil {
		return err
	}
	if mon := c.Monitor(); mon != nil {
		mon.RemovePublic(id, geom.Rect{Min: o.Pos, Max: o.Pos})
	}
	return nil
}

// EnableContinuous attaches a continuous-query monitor to the
// framework: from now on every cloaked-region update that reaches the
// server also reaches the monitor (still pseudonymous — the monitor is
// part of the server side and never sees identities or exact
// positions). notify receives change events; it is invoked
// synchronously on the updating goroutine and must not call back into
// the Casper instance or the Monitor (use EnableContinuousBuffered
// for off-hot-path delivery). Calling it again returns the existing
// monitor.
func (c *Casper) EnableContinuous(notify func(continuous.Event)) *continuous.Monitor {
	return c.enableContinuous(continuous.Config{Notify: notify})
}

// EnableContinuousBuffered is EnableContinuous with event delivery
// taken off the update hot path: events are queued (up to buffer
// entries) and notify runs on a dedicated goroutine, so location
// updates never block on a slow subscriber until the buffer fills.
// Close the Casper (or the Monitor) to stop delivery.
func (c *Casper) EnableContinuousBuffered(notify func(continuous.Event), buffer int) *continuous.Monitor {
	if buffer < 1 {
		buffer = 1
	}
	return c.enableContinuous(continuous.Config{Notify: notify, Buffer: buffer})
}

func (c *Casper) enableContinuous(mcfg continuous.Config) *continuous.Monitor {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.monitor != nil {
		return c.monitor
	}
	mcfg.Universe = c.cfg.Universe
	c.monitor = continuous.NewMonitor(mcfg)
	c.watches = make(map[anonymizer.UserID][]watch)
	// Seed with the server's current state: the stored cloaks under
	// their pseudonyms, so the shadow table starts bit-identical to
	// what snapshot queries see (re-cloaking here could diverge).
	c.monitor.SetPublic(c.srv.PublicItems())
	items := c.srv.PrivateItems()
	seed := make([]continuous.PrivateUpdate, len(items))
	for i, it := range items {
		seed[i] = continuous.PrivateUpdate{ID: it.ID, Region: it.Rect}
	}
	_ = c.monitor.ApplyUpdates(seed)
	return c.monitor
}

// Monitor returns the attached continuous monitor, nil when disabled.
func (c *Casper) Monitor() *continuous.Monitor {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.monitor
}

// WatchNearest registers a continuous nearest-neighbor query for a
// registered user: the monitor keeps the candidate list current as the
// user's cloak and the target data change. kind selects public targets
// or other users' cloaks (the asker's own cloak is excluded
// automatically; a lone asker gets ErrNoBuddies). EnableContinuous must
// have been called.
func (c *Casper) WatchNearest(uid anonymizer.UserID, kind privacyqp.DataKind) (continuous.QueryID, []rtree.Item, error) {
	return c.watch(uid, kind, false, func(cloak geom.Rect, exclude int64) (continuous.QueryID, []rtree.Item, error) {
		qid, cands, err := c.monitor.RegisterNN(cloak, kind, privacyqp.DefaultOptions(), exclude)
		if kind == privacyqp.PrivateData && errors.Is(err, privacyqp.ErrNoTargets) { // the asker is alone
			return 0, nil, ErrNoBuddies
		}
		return qid, cands, err
	})
}

// WatchRange registers a standing private range query for a user: the
// monitor keeps "all targets within radius of me" current as the
// user's cloak and the data change. EnableContinuous must have been
// called.
func (c *Casper) WatchRange(uid anonymizer.UserID, radius float64, kind privacyqp.DataKind) (continuous.QueryID, []rtree.Item, error) {
	return c.watch(uid, kind, true, func(cloak geom.Rect, exclude int64) (continuous.QueryID, []rtree.Item, error) {
		return c.monitor.RegisterRadius(cloak, radius, kind, exclude)
	})
}

// watch is the body WatchNearest and WatchRange share. Under mu it
// looks up the asker's pseudonym, releases the asker's cloak, files the
// query through register and lists it under uid, so a concurrent
// update of the asker either finds the watch or cut its cloak first.
func (c *Casper) watch(uid anonymizer.UserID, kind privacyqp.DataKind, radius bool, register func(cloak geom.Rect, exclude int64) (continuous.QueryID, []rtree.Item, error)) (continuous.QueryID, []rtree.Item, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.monitor == nil {
		return 0, nil, ErrMonitorDisabled
	}
	pid, ok := c.pids[uid]
	if !ok {
		return 0, nil, fmt.Errorf("%w: user %d", ErrNotRegistered, uid)
	}
	cr, _, err := c.cloakUID(uid)
	if err != nil {
		return 0, nil, userErr(err)
	}
	exclude := int64(-1)
	if kind == privacyqp.PrivateData {
		exclude = pid
	}
	qid, cands, err := register(cr.Region, exclude)
	if err != nil {
		return 0, nil, err
	}
	c.watches[uid] = append(c.watches[uid], watch{id: qid, radius: radius})
	return qid, cands, nil
}

// Unwatch tears down one standing query previously registered with
// WatchNearest or WatchRange, reporting whether it was found. The
// user's other watches (and the user registration itself) are
// untouched — this is the per-subscription counterpart of the
// wholesale teardown DeregisterUser performs.
func (c *Casper) Unwatch(uid anonymizer.UserID, qid continuous.QueryID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.monitor == nil {
		return false
	}
	removed := c.monitor.Unregister(qid)
	if ws := slices.DeleteFunc(c.watches[uid], func(w watch) bool { return w.id == qid }); len(ws) > 0 {
		c.watches[uid] = ws
	} else {
		delete(c.watches, uid)
	}
	return removed
}

// RegisterUser registers a mobile user: the anonymizer learns the
// exact position and profile, assigns a pseudonym, and pushes only the
// cloaked region to the server. The anonymizer's own duplicate check
// is the atomicity point for concurrent registrations of the same ID.
//
// Pseudonyms are random, so the server cannot infer registration order
// or identity. One already stored at the server is skipped: after a
// WAL recovery the deterministic generator would otherwise replay IDs
// that still name recovered cloaks.
func (c *Casper) RegisterUser(uid anonymizer.UserID, pos geom.Point, prof anonymizer.Profile) error {
	if err := c.anon().Register(uid, pos, prof); err != nil {
		return userErr(err)
	}
	c.mu.Lock()
	var pid int64
	for taken := true; taken; _, taken = c.srv.GetPrivate(pid) {
		pid = c.rng.Int63()
	}
	c.pids[uid] = pid
	c.mu.Unlock()
	if err := c.pushCloak(uid); err != nil {
		// Roll back so a failed registration leaves no ghost user; the
		// caller can fix the profile and retry without hitting
		// ErrAlreadyRegistered.
		c.forget(uid)
		_ = c.anon().Deregister(uid)
		return err
	}
	return nil
}

// UpdateUser processes a location update and refreshes the user's
// cloaked region at the server.
func (c *Casper) UpdateUser(uid anonymizer.UserID, pos geom.Point) error {
	if err := c.anon().Update(uid, pos); err != nil {
		return userErr(err)
	}
	return c.pushCloak(uid)
}

// UserUpdate is one entry of a batched location-update call.
type UserUpdate struct {
	UID anonymizer.UserID
	Pos geom.Point
}

// cloakedPush is one freshly stored cloak awaiting monitor/watch
// propagation.
type cloakedPush struct {
	uid    anonymizer.UserID
	pid    int64
	region geom.Rect
}

// UpdateUsers applies a batch of location updates and refreshes all
// the resulting cloaks at the server in one shot: one server write
// lock, and with persistence configured one WAL record (chunked only
// past wal.MaxBatchEntries), instead of one of each per user. It
// returns how many updates were fully applied.
//
// Entries are processed in order; the first anonymizer or cloaking
// failure stops intake, but the cloaks already collected are still
// stored — updates before the failing entry behave exactly as if made
// through UpdateUser. A storage failure is reported with the count of
// anonymizer-applied updates; the anonymizer state keeps them, their
// cloak refresh is lost (same contract as a failed UpdateUser).
func (c *Casper) UpdateUsers(updates []UserUpdate) (int, error) {
	if len(updates) == 0 {
		return 0, nil
	}
	pushed := make([]cloakedPush, 0, len(updates))
	applied := 0
	var firstErr error
	for _, u := range updates {
		if err := c.anon().Update(u.UID, u.Pos); err != nil {
			firstErr = fmt.Errorf("batch aborted at uid %d: %w", u.UID, userErr(err))
			break
		}
		pid, ok := c.pseudonym(u.UID)
		if !ok {
			// Deregistered concurrently after the anonymizer update;
			// nothing to store for this entry.
			applied++
			continue
		}
		cr, _, err := c.cloakUID(u.UID)
		if err != nil {
			// Unsatisfiable profile: the previous region stays in place,
			// exactly like a failed UpdateUser push.
			firstErr = fmt.Errorf("batch aborted at uid %d: %w", u.UID, userErr(err))
			break
		}
		pushed = append(pushed, cloakedPush{uid: u.UID, pid: pid, region: cr.Region})
		applied++
	}
	if err := c.storeCloaks(pushed); err != nil {
		return applied, err
	}
	return applied, firstErr
}

// storeCloaks upserts freshly cut cloaks at the server in one batch —
// one server write lock, one WAL append and one snapshot publish —
// then propagates them to the continuous monitor. Every cloak the
// framework stores goes through here; a single update is a batch of
// one.
func (c *Casper) storeCloaks(pushed []cloakedPush) error {
	if len(pushed) == 0 {
		return nil
	}
	objs := make([]server.PrivateObject, len(pushed))
	for i, p := range pushed {
		objs[i] = server.PrivateObject{ID: p.pid, Region: p.region}
	}
	if err := c.srv.UpsertPrivateBatchTraced(objs, c.tr); err != nil {
		return err
	}
	return c.notifyCloakBatch(pushed)
}

// notifyCloakBatch propagates a batch of freshly stored cloaks to the
// continuous monitor in one ApplyUpdates call — the monitor lock is
// taken once for the whole batch instead of once per user — then
// refreshes the users' standing watches. It takes mu only after all
// anonymizer and server locks have been released.
func (c *Casper) notifyCloakBatch(pushed []cloakedPush) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.monitor == nil {
		return nil
	}
	batch := make([]continuous.PrivateUpdate, len(pushed))
	for i, p := range pushed {
		batch[i] = continuous.PrivateUpdate{ID: p.pid, Region: p.region}
	}
	firstErr := c.monitor.ApplyUpdates(batch)
	for _, p := range pushed {
		for _, w := range c.watches[p.uid] {
			var err error
			if w.radius {
				err = c.monitor.UpdateRadiusCloak(w.id, p.region)
			} else {
				err = c.monitor.UpdateNNCloak(w.id, p.region)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// SetProfile changes a user's privacy profile and re-cloaks.
func (c *Casper) SetProfile(uid anonymizer.UserID, prof anonymizer.Profile) error {
	if err := c.anon().SetProfile(uid, prof); err != nil {
		return userErr(err)
	}
	return c.pushCloak(uid)
}

// DeregisterUser removes a user from both components, tearing down
// any continuous queries they registered.
func (c *Casper) DeregisterUser(uid anonymizer.UserID) error {
	if err := c.anon().Deregister(uid); err != nil {
		return userErr(err)
	}
	pid, ok := c.forget(uid)
	if !ok {
		// A concurrent DeregisterUser already tore the rest down (the
		// anonymizer's own check serializes who wins).
		return nil
	}
	return c.srv.RemovePrivate(pid)
}

// forget drops uid's pseudonym and, with the monitor on, the user's
// cloak and standing queries from it. It returns the pseudonym, if
// uid had one.
func (c *Casper) forget(uid anonymizer.UserID) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pid, ok := c.pids[uid]
	if !ok {
		return 0, false
	}
	delete(c.pids, uid)
	if c.monitor != nil {
		c.monitor.RemovePrivate(pid)
		for _, w := range c.watches[uid] {
			c.monitor.Unregister(w.id)
		}
		delete(c.watches, uid)
	}
	return pid, true
}

// pseudonym returns uid's server pseudonym; ok is false when uid is
// not registered with the framework.
func (c *Casper) pseudonym(uid anonymizer.UserID) (pid int64, ok bool) {
	c.mu.RLock()
	pid, ok = c.pids[uid]
	c.mu.RUnlock()
	return pid, ok
}

// pushCloak recomputes the user's cloaked region and stores it under
// the pseudonym (see storeCloaks). An unsatisfiable profile leaves the
// previous region in place and reports the error.
func (c *Casper) pushCloak(uid anonymizer.UserID) error {
	pid, ok := c.pseudonym(uid)
	if !ok {
		// The user was deregistered between the anonymizer update and
		// this push (concurrent update/deregister); nothing to store.
		return fmt.Errorf("%w: user %d", ErrNotRegistered, uid)
	}
	cr, _, err := c.cloakUID(uid)
	if err != nil {
		return userErr(err)
	}
	return c.storeCloaks([]cloakedPush{{uid: uid, pid: pid, region: cr.Region}})
}

// cloakUID is the release gate: it cloaks the user's location and is
// the only path by which a cloak leaves the anonymizer — stored at the
// server, run as a private query, or registered as a standing watch
// (a watch is a release of the asker's location). It times the cloak
// once and makes one privacyobs.Default.Release call, which checks the
// user's ε ceiling, spends and records the release in one critical
// section. A refused cloak is discarded unreleased and reported as
// ErrBudgetExhausted. It returns the cloak and the time it took; when
// c.tr is non-nil that time is also a "cloak" span annotated with the
// release's privacy characteristics.
func (c *Casper) cloakUID(uid anonymizer.UserID) (anonymizer.CloakedRegion, time.Duration, error) {
	b := c.backend.Load()
	start := time.Now()
	cr, err := b.anon.Cloak(uid)
	took := time.Since(start)
	if privacyobs.Default.Release(b.name, int64(uid), cr, took, err) {
		return anonymizer.CloakedRegion{}, took, fmt.Errorf("%w: user %d", ErrBudgetExhausted, uid)
	}
	if c.tr == nil {
		return cr, took, err
	}
	c.tr.RecordSpan("cloak", start, took, trace.Str("backend", b.name),
		trace.Str("mechanism", cr.Mechanism.String()),
		trace.Int("level", int64(cr.Level)),
		trace.Int("k_found", int64(cr.KFound)),
		trace.Int("steps_up", int64(cr.StepsUp)),
		trace.Int("k_req", int64(cr.KRequested)),
		trace.Int("area_m2", int64(cr.Region.Area())),
		trace.Int("epsilon_micro", int64(cr.Epsilon*1e6)))
	return cr, took, err
}

// Mechanism-dispatched query entries: region cloaks go through
// Algorithm 2 over the rectangle, perturbed points through the
// point-plus-radius candidate construction (privacyqp's Perturbed*
// family).

func (c *Casper) queryNNPublic(cr anonymizer.CloakedRegion, opt privacyqp.Options) (privacyqp.Result, error) {
	if cr.Mechanism == anonymizer.MechPerturbed {
		return c.srv.NNPublicAt(cr.Point, cr.Radius, opt)
	}
	return c.srv.NNPublic(cr.Region, opt)
}

func (c *Casper) queryNNPrivate(cr anonymizer.CloakedRegion, excludeID int64, opt privacyqp.Options) (privacyqp.Result, error) {
	if cr.Mechanism == anonymizer.MechPerturbed {
		return c.srv.NNPrivateAt(cr.Point, cr.Radius, excludeID, opt)
	}
	return c.srv.NNPrivate(cr.Region, excludeID, opt)
}

func (c *Casper) queryKNNPublic(cr anonymizer.CloakedRegion, k int, opt privacyqp.Options) (privacyqp.Result, error) {
	if cr.Mechanism == anonymizer.MechPerturbed {
		return c.srv.KNNPublicAt(cr.Point, cr.Radius, k, opt)
	}
	return c.srv.KNNPublic(cr.Region, k, opt)
}

func (c *Casper) queryRangePublic(cr anonymizer.CloakedRegion, radius float64) (privacyqp.Result, error) {
	if cr.Mechanism == anonymizer.MechPerturbed {
		return c.srv.RangePublicAt(cr.Point, cr.Radius, radius)
	}
	return c.srv.RangePublic(cr.Region, radius)
}

// NNAnswer is the outcome of a private nearest-neighbor query.
type NNAnswer struct {
	// Exact is the refined exact answer (the client-side step).
	Exact rtree.Item
	// Candidates is the candidate list the server produced.
	Candidates []rtree.Item
	// CloakedQuery is the blurred query region the server saw.
	CloakedQuery geom.Rect
	// Cost is the end-to-end breakdown.
	Cost Breakdown
}

// privateQuery is the anonymizer path every private query shares
// (Fig. 1): cloak uid's location and run the mechanism-dispatched
// server query q on the cloak, with Algorithm 2's four filters, inside
// a "query" span. It returns the cloaked query region the server saw,
// the candidate list and the cost breakdown (whose Transmit is
// modelled, so it is not traced). A cloak failure comes back through
// userErr; q's error is returned as q returned it, so each caller
// keeps its own wrapping.
func (c *Casper) privateQuery(uid anonymizer.UserID, q func(anonymizer.CloakedRegion, privacyqp.Options) (privacyqp.Result, error)) (geom.Rect, []rtree.Item, Breakdown, error) {
	tr := c.tr
	cr, cloak, err := c.cloakUID(uid)
	if err != nil {
		return geom.Rect{}, nil, Breakdown{}, userErr(err)
	}
	opt := privacyqp.DefaultOptions()
	opt.Trace = tr
	t1 := time.Now()
	qsp := tr.StartSpan("query")
	res, err := q(cr, opt)
	if err != nil {
		qsp.End()
		return geom.Rect{}, nil, Breakdown{}, err
	}
	t2 := time.Now()
	n := len(res.Candidates)
	if tr != nil {
		qsp.End(trace.Int("candidates", int64(n)))
	}
	return cr.Region, res.Candidates, Breakdown{
		Cloak:      cloak,
		Query:      t2.Sub(t1),
		Transmit:   DefaultTransmission().TimeFor(cr.Mechanism, n),
		Candidates: n,
	}, nil
}

// NearestPublic runs the full private-query-over-public-data pipeline
// for a registered user: cloak the query location, compute the
// candidate list server-side, ship it, refine locally.
func (c *Casper) NearestPublic(uid anonymizer.UserID) (NNAnswer, error) {
	pos, err := c.userPos(uid)
	if err != nil {
		return NNAnswer{}, err
	}
	region, cands, bd, err := c.privateQuery(uid, func(cr anonymizer.CloakedRegion, opt privacyqp.Options) (privacyqp.Result, error) {
		res, err := c.queryNNPublic(cr, opt)
		return res, srvErr(err)
	})
	if err != nil {
		return NNAnswer{}, err
	}
	ans := NNAnswer{Candidates: cands, CloakedQuery: region, Cost: bd}
	exact, ok := privacyqp.RefineNN(pos, cands, privacyqp.PublicData)
	if !ok {
		return ans, ErrEmptyCandidates
	}
	ans.Exact = exact
	return ans, nil
}

// NearestBuddy runs the private-query-over-private-data pipeline: the
// candidate list holds cloaked regions of other users; the refined
// answer minimizes the pessimistic (furthest-corner) distance.
func (c *Casper) NearestBuddy(uid anonymizer.UserID) (NNAnswer, error) {
	pos, err := c.userPos(uid)
	if err != nil {
		return NNAnswer{}, err
	}
	pid, ok := c.pseudonym(uid)
	if !ok {
		// The user deregistered between userPos and here; pseudonym 0
		// would wrongly exclude (or fail to exclude) a stored cloak.
		return NNAnswer{}, fmt.Errorf("%w: user %d", ErrNotRegistered, uid)
	}
	region, cands, bd, err := c.privateQuery(uid, func(cr anonymizer.CloakedRegion, opt privacyqp.Options) (privacyqp.Result, error) {
		return c.queryNNPrivate(cr, pid, opt)
	})
	if errors.Is(err, privacyqp.ErrNoTargets) { // the asker is alone
		return NNAnswer{}, ErrNoBuddies
	}
	if err != nil {
		return NNAnswer{}, err
	}
	ans := NNAnswer{Candidates: cands, CloakedQuery: region, Cost: bd}
	exact, ok := privacyqp.RefineNN(pos, cands, privacyqp.PrivateData)
	if !ok {
		return ans, ErrNoBuddies
	}
	ans.Exact = exact
	return ans, nil
}

// KNearestPublic runs the private k-NN pipeline over public data: the
// server computes an inclusive candidate list from the cloak alone;
// the client refines the exact k nearest, ascending, equal distances
// by ID (privacyqp.RefineKNN).
func (c *Casper) KNearestPublic(uid anonymizer.UserID, k int) ([]rtree.Item, Breakdown, error) {
	pos, err := c.userPos(uid)
	if err != nil {
		return nil, Breakdown{}, err
	}
	_, cands, bd, err := c.privateQuery(uid, func(cr anonymizer.CloakedRegion, opt privacyqp.Options) (privacyqp.Result, error) {
		res, err := c.queryKNNPublic(cr, k, opt)
		return res, srvErr(err)
	})
	if err != nil {
		return nil, Breakdown{}, err
	}
	return privacyqp.RefineKNN(pos, cands, k, privacyqp.PublicData), bd, nil
}

// RangePublic runs a private range query over public data: all public
// targets within radius of the user, refined exactly client-side.
func (c *Casper) RangePublic(uid anonymizer.UserID, radius float64) ([]rtree.Item, Breakdown, error) {
	pos, err := c.userPos(uid)
	if err != nil {
		return nil, Breakdown{}, err
	}
	_, cands, bd, err := c.privateQuery(uid, func(cr anonymizer.CloakedRegion, _ privacyqp.Options) (privacyqp.Result, error) {
		res, err := c.queryRangePublic(cr, radius)
		return res, srvErr(err)
	})
	if err != nil {
		return nil, Breakdown{}, err
	}
	return privacyqp.RefineRange(pos, cands, radius, privacyqp.PublicData), bd, nil
}

// CountUsersIn answers a public (administrator) query over private
// data: how many users are in region r. Public queries bypass the
// anonymizer (Fig. 1); the server answers from stored cloaks.
func (c *Casper) CountUsersIn(r geom.Rect, policy privacyqp.CountPolicy) (float64, error) {
	return c.srv.CountPrivate(r, policy)
}

// UserDensityGrid returns the n x n expected-count density map of the
// registered population over the universe, computed from cloaks only
// (a public query over private data).
func (c *Casper) UserDensityGrid(n int) ([][]float64, error) {
	return c.srv.DensityPrivate(c.cfg.Universe, n)
}

// userPos fetches the exact position known to the anonymizer; it
// stands in for "the client knows where it is" in this in-process
// deployment.
func (c *Casper) userPos(uid anonymizer.UserID) (geom.Point, error) {
	pos, err := c.anon().Position(uid)
	return pos, userErr(err)
}

// Users returns the number of registered users.
func (c *Casper) Users() int { return c.anon().Users() }
