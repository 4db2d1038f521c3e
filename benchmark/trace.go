package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"casper"
	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
	"casper/internal/server"
	"casper/internal/stats"
	"casper/internal/wal"
)

// span is one timed call into a layer. Root spans ("op") are one per
// generated op; every other span is a child of the op that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the start of the traced pass
	End    int64  `json:"end_ns"`
	Op     int    `json:"op"`             // index of the op in the traced script, -1 during set-up
	Kind   string `json:"kind,omitempty"` // root spans: the op kind
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so set-up code can be shared with the
// untraced run.
type tracer struct {
	t0    time.Time
	spans []span
	root  int // ID of the open root span, 0 outside an op
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) start(name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.root, Name: name,
		Start: time.Since(t.t0).Nanoseconds(), Op: t.op})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	}
}

func (t *tracer) beginOp(idx int, kind opKind) {
	t.op, t.root = idx, 0
	t.root = t.start("op")
	t.spans[t.root-1].Kind = kindNames[kind]
}

func (t *tracer) endOp() {
	t.end(t.root)
	t.op, t.root = -1, 0
}

// durationsUS groups span durations by name, in microseconds.
func (t *tracer) durationsUS() map[string]*stats.Summary {
	out := make(map[string]*stats.Summary)
	for _, s := range t.spans {
		observe(out, s.Name, float64(s.End-s.Start)/1e3)
	}
	return out
}

func observe(m map[string]*stats.Summary, name string, v float64) {
	s := m[name]
	if s == nil {
		s = &stats.Summary{}
		m[name] = s
	}
	s.Add(v)
}

func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta["spans"] = t.spans
	err = json.NewEncoder(f).Encode(meta)
	return errors.Join(err, f.Close())
}

// spanCostNS measures what recording one span costs, so the traced pass
// can say how much of its own time was bookkeeping.
func spanCostNS() float64 {
	const n = 200000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("x"))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// layers holds one standalone instance of every layer, fed the same
// population as the real Casper next to them. The traced pass walks each
// op through the real core call and then through the layer calls that
// core call is made of, one span each, single-threaded.
type layers struct {
	w    *world
	tr   *tracer
	core *deployment // a fresh real instance, never served over the wire
	anon anonymizer.Anonymizer
	psrv *server.Persistent
	pub  *rtree.Tree // harness-built copies of the two tables
	priv *rtree.Tree
	log  *wal.Log
	mon  *continuous.Monitor
	opt  privacyqp.Options

	cloak   []casper.Rect     // current cloak per uid, as stored in priv and psrv
	pos     []casper.Point    // exact position per uid
	watches map[int64][]watch // standing queries per uid on mon
	heap    rtree.NNHeap      // scratch for the rtree kernels
	nbuf    []rtree.Neighbor
	ibuf    []rtree.Item
	vals    map[string]*stats.Summary // per-call values that are not span durations

	walBytes, walAppends   int64
	costUpdates, costUnits int64
	kSat, cloaks           int64
	buddyIncl, buddies     int64
	allocBytes, coreCalls  uint64
	applyAt                atomic.Int64 // start of the latest monitor apply, ns since tr.t0
	events                 atomic.Int64
	lagUS                  stats.Summary // written by the monitor's delivery goroutine only
	adds                   int
	err                    error    // first error of a layer call; the pass stops on it
	monBase                [3]int64 // monitor updates, evaluations, safe hits before the pass
	srvWAL                 string   // the standalone server's log
}

type watch struct {
	qid    continuous.QueryID
	radius bool
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes is the cumulative count of heap bytes allocated.
func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// buildLayers sets up the real instance (with a span per registration)
// and the standalone layer instances.
func buildLayers(w *world, wl workload, sc scale, dir string, tr *tracer) (*layers, error) {
	l := &layers{w: w, tr: tr, opt: privacyqp.DefaultOptions(),
		vals: make(map[string]*stats.Summary), watches: make(map[int64][]watch)}
	var err error
	if l.core, _, err = setUp(w, wl, sc, dir, tr); err != nil {
		return nil, err
	}
	cfg := l.core.c.Config()
	l.anon, err = anonymizer.New(cfg.Backend, anonymizer.BackendConfig{
		Universe: cfg.Universe, Levels: cfg.PyramidLevels, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// Like setUp's refresh sweep leaves the real instance: every cloak cut
	// for the whole population.
	n := w.users()
	l.pos = append([]casper.Point(nil), w.frames[0]...)
	l.cloak = make([]casper.Rect, n)
	objs := make([]server.PrivateObject, n)
	for uid := 0; uid < n; uid++ {
		if err := l.anon.Register(anonymizer.UserID(uid), l.pos[uid], w.profiles[uid]); err != nil {
			return nil, err
		}
	}
	for uid := 0; uid < n; uid++ {
		cr, err := l.anon.Cloak(anonymizer.UserID(uid))
		if err != nil {
			return nil, err
		}
		l.cloak[uid] = cr.Region
		// The standalone server is keyed by uid: the harness is on the
		// anonymizer's side of the trust boundary and needs the mapping.
		objs[uid] = server.PrivateObject{ID: int64(uid), Region: cr.Region}
	}
	l.srvWAL = filepath.Join(dir, fmt.Sprintf("layer-server-%d.wal", os.Getpid()))
	if l.psrv, err = server.OpenPersistent(l.srvWAL); err != nil {
		return nil, err
	}
	if err := l.psrv.LoadPublic(w.targets); err != nil {
		return nil, err
	}
	if err := l.psrv.UpsertPrivateBatch(objs); err != nil {
		return nil, err
	}
	l.pub = rtree.BulkLoad(l.psrv.PublicItems())
	l.priv = rtree.BulkLoad(l.psrv.PrivateItems())
	if l.log, err = wal.Create(filepath.Join(dir, fmt.Sprintf("layer-wal-%d.wal", os.Getpid()))); err != nil {
		return nil, err
	}
	if nw := watchCount(wl, sc); nw > 0 {
		l.buildMonitor(nw)
	}
	return l, l.err
}

// buildMonitor mirrors what setUp asks of the real monitor, on a
// standalone one, with a span per watch registration.
func (l *layers) buildMonitor(nw int) {
	l.mon = continuous.NewMonitor(continuous.Config{
		Universe: l.w.universe, Buffer: 4096,
		Notify: func(continuous.Event) {
			l.events.Add(1)
			if at := l.applyAt.Load(); at > 0 {
				l.lagUS.Add(float64(time.Since(l.tr.t0).Nanoseconds()-at) / 1e3)
			}
		}})
	l.mon.SetPublic(l.psrv.PublicItems())
	seed := make([]continuous.PrivateUpdate, len(l.cloak))
	for uid, r := range l.cloak {
		seed[uid] = continuous.PrivateUpdate{ID: int64(uid), Region: r}
	}
	l.check("seed monitor", l.mon.ApplyUpdates(seed))
	for i := 0; i < nw; i++ {
		uid := int64(i * (l.w.users() / nw))
		// Like core.WatchNearest, watch from a fresh cloak, not the stored one.
		cr, err := l.anon.Cloak(anonymizer.UserID(uid))
		var qid continuous.QueryID
		sp := l.tr.start("continuous.watch_register")
		switch {
		case err != nil:
		case i%3 == 0:
			qid, _, err = l.mon.RegisterNN(cr.Region, privacyqp.PublicData, l.opt, -1)
		case i%3 == 1:
			qid, _, err = l.mon.RegisterNN(cr.Region, privacyqp.PrivateData, l.opt, uid)
		default:
			qid, _, err = l.mon.RegisterRadius(cr.Region, l.w.radius, privacyqp.PrivateData, uid)
		}
		l.tr.end(sp)
		l.check("register watch", err)
		l.watches[uid] = append(l.watches[uid], watch{qid: qid, radius: i%3 == 2})
	}
	l.monBase = [3]int64{l.mon.Updates(), l.mon.Evaluations(), l.mon.SafeRegionHits()}
}

// close tears everything down and returns how long replaying the
// standalone server's log took: the bulk load, the seeding batch and
// every upsert of the pass.
func (l *layers) close() (replayS float64, err error) {
	if l.mon != nil {
		l.mon.Close() // waits for the delivery goroutine, the only writer of lagUS
	}
	err = errors.Join(l.core.close(), l.psrv.Close(), l.log.Close())
	start := time.Now()
	_, rerr := wal.Replay(l.srvWAL, func(wal.Record) error { return nil })
	replayS = time.Since(start).Seconds()
	return replayS, errors.Join(err, rerr, os.Remove(l.srvWAL), os.Remove(l.log.Path()))
}

// spanned runs fn inside a span.
func (l *layers) spanned(name string, fn func()) {
	sp := l.tr.start(name)
	fn()
	l.tr.end(sp)
}

// coreCall runs a call into the real Casper inside a span and charges the
// bytes it allocated to core.alloc_bytes_per_op.
func (l *layers) coreCall(name string, fn func()) {
	before := allocatedBytes()
	l.spanned(name, fn)
	l.allocBytes += allocatedBytes() - before
	l.coreCalls++
}

// check keeps the first error a layer call returned.
func (l *layers) check(what string, err error) {
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("traced pass: %s: %w", what, err)
	}
}

func (l *layers) val(name string, v float64) { observe(l.vals, name, v) }

func (l *layers) breakdown(b casper.Breakdown) {
	l.val("core.cloak_us", float64(b.Cloak.Nanoseconds())/1e3)
	l.val("core.query_us", float64(b.Query.Nanoseconds())/1e3)
	l.val("core.transmit_us", float64(b.Transmit.Nanoseconds())/1e3)
}

// cloakOf cloaks uid on the standalone anonymizer and keeps the privacy
// accounting: whether k was met and how many lowest-level cells it took.
func (l *layers) cloakOf(uid int64) casper.CloakedRegion {
	var cr casper.CloakedRegion
	var err error
	l.spanned("anonymizer.cloak", func() { cr, err = l.anon.Cloak(anonymizer.UserID(uid)) })
	l.check("anonymizer.Cloak", err)
	l.cloaks++
	if cr.KFound >= cr.KRequested {
		l.kSat++
	}
	l.val("anonymizer.cloak_area_cells", cr.Region.Area()/l.anon.Grid().LeafArea())
	return cr
}

// move applies one location update to the standalone anonymizer and
// returns the new cloak.
func (l *layers) move(uid int64, p casper.Point) casper.Rect {
	c0 := l.anon.UpdateCost()
	var err error
	l.spanned("anonymizer.update", func() { err = l.anon.Update(anonymizer.UserID(uid), p) })
	l.check("anonymizer.Update", err)
	l.costUnits += l.anon.UpdateCost() - c0
	l.costUpdates++
	l.pos[uid] = p
	return l.cloakOf(uid).Region
}

// walAppend logs rec to the standalone WAL, syncing every 256 appends.
func (l *layers) walAppend(name string, rec wal.Record) {
	var err error
	l.spanned(name, func() { err = l.log.Append(rec) })
	l.walBytes += int64(wal.RecordSize(rec))
	l.walAppends++
	if err == nil && l.walAppends%256 == 0 {
		l.spanned("wal.sync", func() { err = l.log.Sync() })
	}
	l.check("wal", err)
}

// store replaces cloaks in the harness's private tree the way the server
// does: clone the whole tree, then delete and insert on the clone.
func (l *layers) store(name string, objs []server.PrivateObject) {
	var next *rtree.Tree
	l.spanned("rtree.clone", func() { next = l.priv.Clone() })
	l.spanned(name, func() {
		for _, o := range objs {
			next.Delete(o.ID, l.cloak[o.ID])
			next.Insert(rtree.Item{Rect: o.Region, ID: o.ID})
		}
	})
	for _, o := range objs {
		l.cloak[o.ID] = o.Region
	}
	l.priv = next
}

// monitorApply feeds the standalone monitor what core feeds the real one
// after a store: the moved cloaks, then the movers' own standing queries.
func (l *layers) monitorApply(objs []server.PrivateObject) {
	if l.mon == nil {
		return
	}
	batch := make([]continuous.PrivateUpdate, len(objs))
	for i, o := range objs {
		batch[i] = continuous.PrivateUpdate{ID: o.ID, Region: o.Region}
	}
	l.applyAt.Store(time.Since(l.tr.t0).Nanoseconds())
	l.spanned("continuous.apply", func() {
		l.check("monitor apply", l.mon.ApplyUpdates(batch))
		for _, o := range objs {
			for _, wt := range l.watches[o.ID] {
				if wt.radius {
					l.check("monitor watch", l.mon.UpdateRadiusCloak(wt.qid, o.Region))
				} else {
					l.check("monitor watch", l.mon.UpdateNNCloak(wt.qid, o.Region))
				}
			}
		}
	})
	l.val("continuous.apply_us_per_update", l.lastSpanUS()/float64(len(objs)))
}

// step walks one op through the real core call and the layer calls under
// it. The pass has no failure accounting of its own: the first error of
// any call ends it.
func (l *layers) step(o op) {
	c := l.core.c
	uid := casper.UserID(o.uid)
	must := func(err error) { l.check(fmt.Sprintf("%s uid %d", kindNames[o.kind], o.uid), err) }
	switch o.kind {
	case opUpdate:
		l.coreCall("core.update_user", func() { must(c.UpdateUser(uid, o.pos)) })
		region := l.move(o.uid, o.pos)
		objs := []server.PrivateObject{{ID: o.uid, Region: region}}
		l.walAppend("wal.append", wal.Record{Type: wal.PrivateUpsert, ID: o.uid,
			X0: region.Min.X, Y0: region.Min.Y, X1: region.Max.X, Y1: region.Max.Y})
		l.store("rtree.insert_delete", objs)
		l.spanned("server.upsert_private", func() { must(l.psrv.UpsertPrivate(objs[0])) })
		l.monitorApply(objs)

	case opUpdateBatch:
		ups := make([]casper.UserUpdate, len(o.batch))
		for i, b := range o.batch {
			ups[i] = casper.UserUpdate{UID: casper.UserID(b.UserID), Pos: casper.Pt(b.X, b.Y)}
		}
		l.coreCall("core.update_users", func() { _, err := c.UpdateUsers(ups); must(err) })
		n := float64(len(ups))
		l.val("core.update_users_us_per_entry", l.lastSpanUS()/n)
		objs := make([]server.PrivateObject, len(ups))
		rec := wal.Record{Type: wal.PrivateUpsertBatch, Batch: make([]wal.BatchEntry, len(ups))}
		for i, u := range ups {
			r := l.move(int64(u.UID), u.Pos)
			objs[i] = server.PrivateObject{ID: int64(u.UID), Region: r}
			rec.Batch[i] = wal.BatchEntry{ID: int64(u.UID), X0: r.Min.X, Y0: r.Min.Y, X1: r.Max.X, Y1: r.Max.Y}
		}
		l.walAppend("wal.append_batch", rec)
		l.store("rtree.insert_delete_batch", objs)
		l.spanned("server.upsert_batch", func() { must(l.psrv.UpsertPrivateBatch(objs)) })
		l.val("server.upsert_batch_us_per_entry", l.lastSpanUS()/n)
		l.monitorApply(objs)

	case opAddPublic:
		t := l.w.addedTarget(l.adds)
		l.adds++
		l.coreCall("core.add_public", func() { must(c.AddPublicObject(t)) })
		l.spanned("server.add_public", func() { must(l.psrv.AddPublic(t)) })
		it := rtree.Item{Rect: casper.Rect{Min: t.Pos, Max: t.Pos}, ID: t.ID, Data: t.Name}
		l.spanned("rtree.clone_public", func() {
			next := l.pub.Clone()
			next.Insert(it)
			l.pub = next
		})
		if l.mon != nil {
			l.spanned("continuous.add_public", func() { l.mon.AddPublic(it) })
		}

	case opNNPublic:
		l.coreCall("core.nearest_public", func() {
			ans, err := c.NearestPublic(uid)
			must(err)
			l.breakdown(ans.Cost)
		})
		cr := l.cloakOf(o.uid)
		h0, _ := l.psrv.CacheStats()
		sp := l.tr.start("server.nn_public_miss")
		_, err := l.psrv.NNPublic(cr.Region, l.opt)
		l.tr.end(sp)
		must(err)
		if h1, _ := l.psrv.CacheStats(); h1 > h0 {
			l.tr.spans[sp-1].Name = "server.nn_public_hit"
		}
		var res privacyqp.Result
		l.spanned("privacyqp.nn_public", func() { res, err = privacyqp.PrivateNN(l.pub, cr.Region, privacyqp.PublicData, l.opt) })
		must(err)
		l.val("privacyqp.candidates_per_nn_public", float64(len(res.Candidates)))
		l.spanned("rtree.nearest_k", func() {
			l.nbuf = l.pub.NearestKInto(cr.Region.Center(), 1, rtree.MinDist, &l.heap, l.nbuf)
		})
		l.spanned("rtree.search", func() { l.ibuf = l.pub.SearchAppend(res.AExt, l.ibuf[:0]) })

	case opKNNPublic:
		l.coreCall("core.knearest_public", func() {
			_, cost, err := c.KNearestPublic(uid, knnK)
			must(err)
			l.breakdown(cost)
		})
		cr := l.cloakOf(o.uid)
		var err error
		l.spanned("server.knn_public", func() { _, err = l.psrv.KNNPublic(cr.Region, knnK, l.opt) })
		must(err)
		l.spanned("privacyqp.knn_public", func() { _, err = privacyqp.PrivateKNN(l.pub, cr.Region, knnK, privacyqp.PublicData, l.opt) })
		must(err)

	case opRangePublic:
		l.coreCall("core.range_public", func() {
			_, cost, err := c.RangePublic(uid, l.w.radius)
			must(err)
			l.breakdown(cost)
		})
		cr := l.cloakOf(o.uid)
		var err error
		l.spanned("server.range_public", func() { _, err = l.psrv.RangePublic(cr.Region, l.w.radius) })
		must(err)
		l.spanned("privacyqp.range_public", func() { _, err = privacyqp.PrivateRange(l.pub, cr.Region, l.w.radius, privacyqp.PublicData) })
		must(err)

	case opNNBuddy:
		l.coreCall("core.nearest_buddy", func() {
			ans, err := c.NearestBuddy(uid)
			if !errors.Is(err, casper.ErrNoBuddies) { // the known bug; the untraced run counts it
				must(err)
				l.breakdown(ans.Cost)
			}
		})
		cr := l.cloakOf(o.uid)
		var res privacyqp.Result
		var err error
		l.spanned("server.nn_private", func() { res, err = l.psrv.NNPrivate(cr.Region, o.uid, l.opt) })
		must(err)
		l.val("privacyqp.candidates_per_nn_buddy", float64(len(res.Candidates)))
		l.buddies++
		if nearest := l.nearestBuddy(o.uid); slices.ContainsFunc(res.Candidates, func(it rtree.Item) bool { return it.ID == nearest }) {
			l.buddyIncl++
		}
		l.spanned("privacyqp.nn_private", func() { _, err = privacyqp.PrivateNN(l.priv, cr.Region, privacyqp.PrivateData, l.opt) })
		must(err)
		l.spanned("rtree.nearest_k", func() {
			l.nbuf = l.priv.NearestKInto(cr.Region.Center(), 1, rtree.MaxDist, &l.heap, l.nbuf)
		})
	}
}

func (l *layers) lastSpanUS() float64 {
	s := l.tr.spans[len(l.tr.spans)-1]
	return float64(s.End-s.Start) / 1e3
}

// nearestBuddy is the user whose exact position is nearest to uid's: the
// answer an inclusive candidate list must contain, found by linear scan.
func (l *layers) nearestBuddy(uid int64) int64 {
	best, bestID := math.Inf(1), int64(-1)
	for other, p := range l.pos {
		if int64(other) == uid {
			continue
		}
		if d := l.pos[uid].Dist(p); d < best {
			best, bestID = d, int64(other)
		}
	}
	return bestID
}
