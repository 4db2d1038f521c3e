package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"casper"
	"casper/internal/protocol"
	"casper/internal/stats"
)

// countingListener counts the bytes the program reads from and writes to
// its sockets: the only place where "bytes on the wire" can be measured
// without re-implementing the codec in the harness.
type countingListener struct {
	net.Listener
	in, out atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

// Write counts before writing, so a client that has decoded a response
// is guaranteed to find its bytes in the counter.
func (c *countingConn) Write(p []byte) (int, error) {
	c.l.out.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// deployment is the in-process casperd equivalent: a durable adaptive
// Casper behind a protocol server on a loopback port.
type deployment struct {
	c       *casper.Casper
	srv     *casper.ProtocolServer
	ln      *countingListener
	walPath string
	events  atomic.Int64 // continuous events delivered to the subscriber
}

// refreshBatch is how many users one UpdateUsers call of the refresh
// sweep carries.
const refreshBatch = 256

// setUp builds the program state every workload starts from and returns
// how long the program's part of it took: casper.New, LoadPublicObjects,
// one RegisterUser per user and the workload's standing watches. Between
// the registrations and the watches every user reports its position once
// more, untimed: a cloak cut at registration fits the population that
// existed then (the first thousand users get city-sized ones), and a
// service is not measured in the minute after it was switched on. World
// and script generation are the harness's own work and are not in the
// time either. tr may be nil.
func setUp(w *world, wl workload, sc scale, dir string, tr *tracer) (*deployment, time.Duration, error) {
	d := &deployment{}
	f, err := os.CreateTemp(dir, "casper-*.wal")
	if err != nil {
		return nil, 0, err
	}
	d.walPath = f.Name()
	f.Close()
	os.Remove(d.walPath) // casper.New creates it; a leftover empty file is "not a WAL"

	start := time.Now()
	cfg := casper.DefaultConfig() // adaptive backend, 9-level pyramid, 4 filters
	cfg.Seed = w.seed
	cfg.WALPath = d.walPath
	if d.c, err = casper.New(cfg); err != nil {
		return nil, 0, err
	}
	if err := d.c.LoadPublicObjects(w.targets); err != nil {
		return nil, 0, err
	}
	for uid, prof := range w.profiles {
		sp := tr.start("core.register_user")
		err := d.c.RegisterUser(casper.UserID(uid), w.frames[0][uid], prof)
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("register %d: %w", uid, err)
		}
	}
	took := time.Since(start)

	ups := make([]casper.UserUpdate, 0, refreshBatch)
	for uid := 0; uid < w.users(); uid++ {
		ups = append(ups, casper.UserUpdate{UID: casper.UserID(uid), Pos: w.frames[0][uid]})
		if len(ups) == refreshBatch || uid == w.users()-1 {
			if _, err := d.c.UpdateUsers(ups); err != nil {
				return nil, 0, fmt.Errorf("refresh: %w", err)
			}
			ups = ups[:0]
		}
	}

	start = time.Now()
	if n := watchCount(wl, sc); n > 0 {
		d.c.EnableContinuousBuffered(func(casper.ContinuousEvent) { d.events.Add(1) }, 4096)
		for i := 0; i < n; i++ {
			uid := casper.UserID(i * (w.users() / n))
			switch i % 3 {
			case 0:
				_, _, err = d.c.WatchNearest(uid, casper.PublicData)
			case 1:
				_, _, err = d.c.WatchNearest(uid, casper.PrivateData)
			default:
				_, _, err = d.c.WatchRange(uid, w.radius, casper.PrivateData)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("watch %d: %w", i, err)
			}
		}
	}
	return d, took + time.Since(start), nil
}

func watchCount(wl workload, sc scale) int {
	if wl.watches == 0 {
		return 0
	}
	return max(3, wl.watches/sc.div)
}

// serve puts the deployment on a loopback port.
func (d *deployment) serve() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.ln = &countingListener{Listener: ln}
	d.srv = casper.NewProtocolServer(d.c)
	return d.srv.Serve(d.ln).String(), nil
}

// close stops the server, syncs and closes the WAL and deletes it.
func (d *deployment) close() error {
	var err error
	if d.srv != nil {
		err = d.srv.Close()
	}
	err = errors.Join(err, d.c.Close())
	return errors.Join(err, os.Remove(d.walPath))
}

// tally counts what happened to the requests of a phase.
type tally struct {
	attempted int64
	failed    int64 // error responses and oracle failures
	noBuddies int64 // nn_buddy answered with the no_buddies code (known bug, reported apart)
	checked   int64 // queries the oracle checked
	firstErr  error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.noBuddies += o.noBuddies
	t.checked += o.checked
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// sample is the client-side latency of one answered request.
type sample struct {
	ns   int64
	kind opKind
}

// answer is the decoded response of a query.
type answer struct {
	nn    protocol.NNResult // nn_public, nn_buddy
	items []protocol.Object // knn_public, range_public
}

// pending is a query the oracle checks once the phase is over: what was
// asked from where, what came back, and what the query may have seen of
// the public table (see view).
type pending struct {
	kind        opKind
	pos         casper.Point
	sure, maybe int
	ans         answer
}

// worker is one closed-loop client. Its buffers are allocated before the
// heap baseline is taken, to the size of the script, and hold no pointers
// while heap_mb is measured.
type worker struct {
	s       *stream
	cl      *casper.ProtocolClient
	samples []sample  // the current phase's answered requests
	checks  []pending // the current phase's sampled queries
	queries int64     // queries issued, for oracle sampling
	tally
}

var queryKinds = []opKind{opNNPublic, opKNNPublic, opRangePublic, opNNBuddy}

// driver drives one deployment over wire protocol v2: numConns
// connections shared by numWorkers closed-loop workers.
type driver struct {
	w       *world
	wl      workload
	d       *deployment
	log     *targetLog
	clients []*casper.ProtocolClient
	workers []*worker
	scratch []int64 // for quantiles over the workers' samples
	// checkEvery: one query in checkEvery is checked, chosen so that about
	// one op in a hundred is a checked query whatever the mix.
	checkEvery int64
}

// newDriver builds everything the harness holds for the run that does
// not need the deployment yet. opsPerWorker is the longest phase it will
// be asked to run.
func newDriver(w *world, wl workload, opsPerWorker int) *driver {
	// Twice the expected share of the script plus a margin: the draw of
	// kinds is random, and the warm-up comes on top of the longest phase.
	adds := 2*numWorkers*opsPerWorker*wl.mix[opAddPublic]/10000 + 64
	dr := &driver{w: w, wl: wl, log: newTargetLog(w, adds), scratch: make([]int64, 0, numWorkers*opsPerWorker)}
	share := 0
	for _, k := range queryKinds {
		share += wl.mix[k]
	}
	dr.checkEvery = int64(max(1, share/100))
	for i := 0; i < numWorkers; i++ {
		dr.workers = append(dr.workers, &worker{
			s:       newStream(w, wl, i),
			samples: make([]sample, 0, opsPerWorker),
			checks:  make([]pending, 0, opsPerWorker/50+16),
		})
	}
	return dr
}

// connect serves d on a loopback port and dials the connections.
func (dr *driver) connect(d *deployment) error {
	dr.d = d
	addr, err := d.serve()
	if err != nil {
		return err
	}
	for i := 0; i < numConns; i++ {
		cl, err := casper.DialProtocolContext(context.Background(), addr)
		if err != nil {
			return err
		}
		dr.clients = append(dr.clients, cl)
	}
	for i, wk := range dr.workers {
		wk.cl = dr.clients[i%numConns]
	}
	return nil
}

func (dr *driver) close() {
	for _, cl := range dr.clients {
		cl.Close()
	}
	dr.clients = nil
}

// do sends one op and returns the decoded answer of a query.
func (dr *driver) do(ctx context.Context, cl *casper.ProtocolClient, o op) (ans answer, err error) {
	switch o.kind {
	case opNNPublic:
		ans.nn, err = cl.NearestPublic(ctx, o.uid)
	case opKNNPublic:
		ans.items, _, err = cl.KNearestPublic(ctx, o.uid, knnK)
	case opRangePublic:
		ans.items, _, err = cl.RangePublic(ctx, o.uid, dr.w.radius)
	case opNNBuddy:
		ans.nn, err = cl.NearestBuddy(ctx, o.uid)
	case opUpdate:
		err = cl.Update(ctx, o.uid, o.pos.X, o.pos.Y)
	case opUpdateBatch:
		var n int
		if n, err = cl.BatchUpdate(ctx, o.batch); err == nil && n != len(o.batch) {
			err = fmt.Errorf("update_batch applied %d of %d entries", n, len(o.batch))
		}
	case opAddPublic:
		var t casper.PublicObject
		var idx int
		if t, idx, err = dr.log.begin(); err != nil {
			return ans, err
		}
		if err = cl.AddPublic(ctx, t.ID, t.Pos.X, t.Pos.Y, t.Name); err == nil {
			dr.log.finish(idx)
		}
	}
	return ans, err
}

// check holds a recorded answer against the oracle.
func (dr *driver) check(p *pending) error {
	v := view{log: dr.log, sure: p.sure, maybe: p.maybe}
	switch p.kind {
	case opNNPublic:
		return v.checkNN(p.pos, p.ans.nn)
	case opKNNPublic:
		return v.checkKNN(p.pos, p.ans.items, knnK)
	case opRangePublic:
		return v.checkRange(p.pos, p.ans.items, dr.w.radius)
	default:
		return checkBuddy(p.ans.nn)
	}
}

// phase is the outcome of one closed-loop phase. The latencies stay in
// the workers' buffers until the next phase; see driver.sorted.
type phase struct {
	tally
	elapsed                time.Duration
	capped                 bool  // the deadline came before the script ended
	bytesIn                int64 // request bytes the server read
	cacheHits, cacheMisses int64
}

// run has every worker execute the next n ops of its stream, or as many
// as it gets through before the deadline, and then checks the sampled
// answers. Every worker has returned before the clock and the counters
// are read, so the totals of a phase are exact, not sampled at a moving
// edge.
func (dr *driver) run(n int, deadline time.Time) phase {
	var ph phase
	h0, m0 := dr.d.c.Server().CacheStats()
	in0 := dr.d.ln.in.Load()
	var capped atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for _, wk := range dr.workers {
		wk.samples, wk.tally = wk.samples[:0], tally{}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			if !dr.work(wk, n, deadline) {
				capped.Store(true)
			}
		}(wk)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.capped = capped.Load()
	ph.bytesIn = dr.d.ln.in.Load() - in0
	h1, m1 := dr.d.c.Server().CacheStats()
	ph.cacheHits, ph.cacheMisses = h1-h0, m1-m0
	for _, wk := range dr.workers {
		for i := range wk.checks {
			if err := dr.check(&wk.checks[i]); err != nil {
				wk.fail(err)
			} else {
				wk.checked++
			}
		}
		clear(wk.checks) // let go of the answers
		wk.checks = wk.checks[:0]
		ph.add(wk.tally)
	}
	return ph
}

// work is one closed-loop client: it issues its stream's next op as soon
// as the previous one is answered. It reports whether it got through all
// n ops before the deadline.
func (dr *driver) work(wk *worker, n int, deadline time.Time) bool {
	ctx := context.Background()
	for j := 0; j < n; j++ {
		if time.Now().After(deadline) {
			return false
		}
		o, i := wk.s.next()
		sampled, sure := false, 0
		if o.kind.isQuery() {
			wk.queries++
			if sampled = wk.queries%dr.checkEvery == 0; sampled {
				sure = dr.log.sureNow()
			}
		}
		t0 := time.Now()
		ans, err := dr.do(ctx, wk.cl, o)
		lat := time.Since(t0).Nanoseconds()
		wk.attempted++
		switch {
		case err == nil:
			if sampled {
				wk.checks = append(wk.checks, pending{kind: o.kind, pos: wk.s.position(i),
					sure: sure, maybe: dr.log.maybeNow(), ans: ans})
			}
		case o.kind == opNNBuddy && errors.Is(err, casper.ErrNoBuddies):
			// A complete answer on the wire, but a wrong one: ROADMAP's
			// live inclusiveness bug. Timed like any answer, counted apart.
			wk.noBuddies++
		default:
			wk.fail(fmt.Errorf("%s uid %d: %w", kindNames[o.kind], o.uid, err))
			continue
		}
		wk.samples = append(wk.samples, sample{ns: lat, kind: o.kind})
	}
	return true
}

// sorted returns the last phase's latencies of the given kinds in
// ascending order. The slice is the driver's scratch buffer: it is valid
// until the next call.
func (dr *driver) sorted(kinds ...opKind) []int64 {
	dr.scratch = dr.scratch[:0]
	for _, wk := range dr.workers {
		for _, s := range wk.samples {
			if slices.Contains(kinds, s.kind) {
				dr.scratch = append(dr.scratch, s.ns)
			}
		}
	}
	slices.Sort(dr.scratch)
	return dr.scratch
}

// quantile is the q-quantile of sorted values, interpolating between the
// two nearest ranks; 0 when there are none.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := min(lo+1, len(sorted)-1)
	return float64(sorted[lo]) + (pos-float64(lo))*float64(sorted[hi]-sorted[lo])
}

// downlink measures response bytes per query on the idle server after
// the timed phase: one query of every kind in the mix from each of n
// users spread over the population, at depth 1, the byte counter read
// around each kind. Kinds are weighted by the mix. Every answer is
// checked by the oracle.
func (dr *driver) downlink(n int) (float64, tally) {
	ctx := context.Background()
	var t tally
	n = min(n, dr.w.users())
	var bytes, weight float64
	for _, k := range queryKinds {
		if dr.wl.mix[k] == 0 {
			continue
		}
		before := dr.d.ln.out.Load()
		for j := 0; j < n; j++ {
			uid := j * (dr.w.users() / n)
			s := dr.workers[uid%numWorkers].s
			p := pending{kind: k, pos: s.position(uid / numWorkers), sure: dr.log.sureNow(), maybe: dr.log.maybeNow()}
			t.attempted++
			var err error
			if p.ans, err = dr.do(ctx, dr.clients[0], op{kind: k, uid: int64(uid)}); err == nil {
				err = dr.check(&p)
			}
			switch {
			case err == nil:
				t.checked++
			case k == opNNBuddy && errors.Is(err, casper.ErrNoBuddies):
				t.noBuddies++
			default:
				t.fail(fmt.Errorf("%s uid %d: %w", kindNames[k], uid, err))
			}
		}
		bytes += float64(dr.wl.mix[k]) * float64(dr.d.ln.out.Load()-before) / float64(n)
		weight += float64(dr.wl.mix[k])
	}
	return bytes / weight, t
}

// wireOverheadUS is what the wire adds to a cache-hit nn_public: the
// median round trip at depth 1 on an otherwise idle server, minus the
// median of the same core call made in-process right after it.
func (dr *driver) wireOverheadUS() (float64, error) {
	const n = 2000
	ctx := context.Background()
	s, cl := dr.workers[0].s, dr.clients[0]
	var wire, direct stats.Summary
	for i := 0; i < n; i++ {
		uid := s.mine[i%len(s.mine)]
		t0 := time.Now()
		if _, err := cl.NearestPublic(ctx, uid); err != nil {
			return 0, fmt.Errorf("overhead probe: %w", err)
		}
		t1 := time.Now()
		if _, err := dr.d.c.NearestPublic(casper.UserID(uid)); err != nil {
			return 0, fmt.Errorf("overhead probe: %w", err)
		}
		wire.Add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
		direct.Add(float64(time.Since(t1).Nanoseconds()) / 1e3)
	}
	return wire.Median() - direct.Median(), nil
}

// scratchDir makes the directory WAL files go to.
func scratchDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
