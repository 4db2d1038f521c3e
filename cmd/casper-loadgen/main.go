// Command casper-loadgen is an open-loop capacity harness for casperd.
//
// It drives a running server (or an in-process one when -addr is
// empty) with a Poisson arrival stream at a configured aggregate rate,
// spread over several connections, with a mixed workload of location
// updates and privacy-aware queries issued by users moving on the
// synthetic Hennepin road network. Because arrivals are scheduled on a
// clock rather than gated on responses, a slow server cannot push back
// on the generator: latency is measured from each request's *scheduled*
// arrival time, so queueing delay is charged to the server
// (coordination-omission-free). Requests that find their connection's
// queue full are counted as shed, not silently dropped.
//
// Usage:
//
//	casper-loadgen [flags]
//
//	-addr      host:port    server to drive ("" starts one in-process)
//	-duration  10s          measurement window
//	-rate      2000         aggregate target arrival rate (req/s)
//	-conns     4            client connections to spread load over
//	-inflight  64           per-connection pipelining depth
//	-users     500          mobile users registered before the run
//	-targets   200          public objects loaded before the run
//	-subscribe 0            standing continuous watches registered
//	                        before the run, with ~10%/s churn mixed in
//	                        (in-process only: the wire protocol has no
//	                        subscription op; the monitor rides the same
//	                        update stream the open-loop load drives)
//	-mix       update=60,nn=20,knn=10,range=10   workload mix (weights)
//	-slo       50ms         p99 latency objective the report grades
//	-seed      1            workload seed
//	-out       BENCH_e2e.json   report path ("" prints only)
//	-pipeline-bench FILE    `go test -bench` output to embed the
//	                        serialized vs pipelined ratio from
//	-shutdown-after 0s      in-process only: initiate graceful server
//	                        shutdown this long into the run (0 = never)
//	-drain-deadline 10s     drain budget handed to Shutdown
//
// The report (see report.go) records achieved throughput, p50/p99/p999
// latency, error and shed rates, and whether the SLO held.
//
// With -shutdown-after the harness doubles as the shutdown-under-load
// smoke: it calls Server.Shutdown mid-run and grades the drain — every
// request completed (or server-shed) before the drain began must have
// succeeded, and the drain must finish inside -drain-deadline without
// force-closing connections. Failures exit nonzero, so `make
// shutdown-smoke` and CI can gate on it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"casper"
	"casper/internal/core"
	"casper/internal/privacyobs"
)

type config struct {
	addr      string
	duration  time.Duration
	rate      float64
	conns     int
	inflight  int
	users     int
	targets   int
	subscribe int
	mix       string
	slo       time.Duration
	seed      int64
	out       string
	raw       string
	benchTxt  string

	shutdownAfter time.Duration
	drainDeadline time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "casperd address (empty starts an in-process server)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "measurement window")
	flag.Float64Var(&cfg.rate, "rate", 2000, "aggregate target arrival rate (req/s)")
	flag.IntVar(&cfg.conns, "conns", 4, "client connections to spread load over")
	flag.IntVar(&cfg.inflight, "inflight", 64, "per-connection pipelining depth")
	flag.IntVar(&cfg.users, "users", 500, "mobile users registered before the run")
	flag.IntVar(&cfg.targets, "targets", 200, "public objects loaded before the run")
	flag.IntVar(&cfg.subscribe, "subscribe", 0, "standing continuous watches registered before the run, churned during it (in-process only)")
	flag.StringVar(&cfg.mix, "mix", "update=60,nn=20,knn=10,range=10", "workload mix weights")
	flag.DurationVar(&cfg.slo, "slo", 50*time.Millisecond, "p99 latency objective")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.StringVar(&cfg.out, "out", "BENCH_e2e.json", "report path (empty prints only)")
	flag.StringVar(&cfg.raw, "raw", "", "also write per-request samples as CSV (offset_ms,latency_ms,op)")
	flag.StringVar(&cfg.benchTxt, "pipeline-bench", "", "go-bench output file to embed the serialized/pipelined ratio from")
	flag.DurationVar(&cfg.shutdownAfter, "shutdown-after", 0, "in-process only: initiate graceful shutdown this long into the run (0 = never)")
	flag.DurationVar(&cfg.drainDeadline, "drain-deadline", 10*time.Second, "drain budget handed to Shutdown when -shutdown-after fires")
	flag.Parse()

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "casper-loadgen: %v\n", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if cfg.out != "" {
		if err := rep.write(cfg.out); err != nil {
			fmt.Fprintf(os.Stderr, "casper-loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", cfg.out)
	}
	if s := rep.Shutdown; s != nil && !s.Clean {
		fmt.Fprintf(os.Stderr, "casper-loadgen: shutdown smoke FAILED (forced=%v, errors before shutdown=%d)\n",
			s.Forced, s.ErrorsBefore)
		os.Exit(1)
	}
}

// opKind is one workload operation drawn from the -mix distribution.
type opKind int

const (
	opUpdate opKind = iota
	opNN
	opKNN
	opRange
	numOps
)

var opNames = [numOps]string{"update", "nn", "knn", "range"}

// parseMix turns "update=60,nn=20,..." into a cumulative distribution
// over opKind for cheap sampling.
func parseMix(s string) ([numOps]float64, error) {
	var weights [numOps]float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return weights, fmt.Errorf("mix: %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return weights, fmt.Errorf("mix: bad weight in %q", part)
		}
		idx := -1
		for i, n := range opNames {
			if n == strings.TrimSpace(name) {
				idx = i
			}
		}
		if idx < 0 {
			return weights, fmt.Errorf("mix: unknown op %q (want update|nn|knn|range)", name)
		}
		weights[idx] = w
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return weights, fmt.Errorf("mix: all weights zero")
	}
	cum := 0.0
	for i := range weights {
		cum += weights[i] / total
		weights[i] = cum
	}
	return weights, nil
}

// job is one scheduled arrival. Latency is measured from `scheduled`,
// not from when a worker picks the job up, so server-side queueing is
// charged to the server.
type job struct {
	kind      opKind
	uid       int64
	scheduled time.Time
}

// connState is one client connection plus its bounded job queue and
// the workers pipelining requests over it.
type connState struct {
	cl   *casper.ProtocolClient
	jobs chan job
}

// workerStats accumulates per-worker so the hot path never contends;
// results are merged after the run. Errors are split around the moment
// graceful shutdown began: failures after that instant are expected
// collateral (closed connections, server-shed requests) and must not
// fail the run, while any failure before it is a real defect.
type workerStats struct {
	latencies  []time.Duration
	samples    []sample // only when cfg.raw is set
	errs       int64    // failures before shutdown began (all failures when no shutdown)
	errsDrain  int64    // failures at/after the shutdown instant
	shedServer int64    // ErrOverloaded responses: admission control, not failure
	shedBudget int64    // ErrBudgetExhausted responses: ε-budget enforcement, not failure
	perOp      [numOps]int64
}

// sample is one completed request for the -raw CSV: when it was
// scheduled (offset from run start) and how long it took.
type sample struct {
	offset  time.Duration
	latency time.Duration
	kind    opKind
}

func run(cfg config) (*report, error) {
	mix, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	if cfg.conns <= 0 || cfg.inflight <= 0 || cfg.users <= 0 || cfg.rate <= 0 {
		return nil, fmt.Errorf("conns, inflight, users and rate must be positive")
	}
	if cfg.subscribe > 0 && cfg.addr != "" {
		return nil, fmt.Errorf("-subscribe needs the in-process server (leave -addr empty): the wire protocol has no subscription op")
	}
	if cfg.shutdownAfter > 0 {
		if cfg.addr != "" {
			return nil, fmt.Errorf("-shutdown-after needs the in-process server (leave -addr empty)")
		}
		if cfg.shutdownAfter >= cfg.duration {
			return nil, fmt.Errorf("-shutdown-after (%s) must fall inside -duration (%s)", cfg.shutdownAfter, cfg.duration)
		}
		if cfg.drainDeadline <= 0 {
			return nil, fmt.Errorf("-drain-deadline must be positive")
		}
	}

	// World: users move on the synthetic county network; targets are
	// uniform over its bounds (the paper's workload shape).
	graph := casper.SyntheticHennepin(cfg.seed)
	bounds := graph.Bounds()
	gen := casper.NewMovingObjects(graph, cfg.users, cfg.seed)
	positions := gen.Positions()

	addr := cfg.addr
	var (
		srv    *casper.ProtocolServer // non-nil in self-contained mode
		inproc *casper.Casper         // the instance behind srv
	)
	if addr == "" {
		// Self-contained mode: serve an in-process instance sized to
		// the road network so the harness needs no running casperd.
		ccfg := casper.DefaultConfig()
		ccfg.Universe = bounds
		inproc = casper.MustNew(ccfg)
		if err := inproc.LoadPublicObjects(casper.UniformTargets(bounds, cfg.targets, cfg.seed)); err != nil {
			return nil, err
		}
		srv = casper.NewProtocolServer(inproc)
		srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
		a, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		addr = a.String()
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration+30*time.Second)
	defer cancel()

	conns := make([]*connState, cfg.conns)
	for i := range conns {
		cl, err := casper.DialProtocolContext(ctx, addr, casper.WithMaxInFlight(cfg.inflight))
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		defer cl.Close()
		// Queue capacity = pipelining depth: once every in-flight
		// slot and every queued slot is taken, the server is behind
		// by 2*inflight requests on this connection and further
		// arrivals shed.
		conns[i] = &connState{cl: cl, jobs: make(chan job, cfg.inflight)}
	}

	// Seed the population over the first connection. k=1 keeps tiny
	// worlds satisfiable; the harness measures transport and server
	// capacity, not cloaking behavior.
	setup := conns[0].cl
	for i, p := range positions {
		uid := int64(i + 1)
		err := setup.Register(ctx, uid, p.Pos.X, p.Pos.Y, 1, 0)
		if errors.Is(err, core.ErrAlreadyRegistered) {
			// Re-running against a live server: adopt the existing
			// registration and just move it to our starting position.
			err = setup.Update(ctx, uid, p.Pos.X, p.Pos.Y)
		}
		if err != nil {
			return nil, fmt.Errorf("register user %d: %w", uid, err)
		}
	}

	rangeRadius := bounds.Width() / 20

	// Standing continuous watches (-subscribe): registered directly on
	// the in-process instance, so every location update the open-loop
	// stream pushes through the wire also drives the monitor's
	// incremental maintenance. A churner replaces ~10% of the
	// subscriptions per second, mixing registration and deregistration
	// into the run the way a real subscriber population would.
	var (
		contEvents  atomic.Int64
		contChurned atomic.Int64
		stopChurn   chan struct{}
		churnDone   chan struct{}
	)
	if cfg.subscribe > 0 {
		inproc.EnableContinuousBuffered(func(casper.ContinuousEvent) { contEvents.Add(1) }, 1024)
		wrng := rand.New(rand.NewSource(cfg.seed + 1))
		type watchRef struct {
			uid casper.UserID
			qid casper.ContinuousQueryID
		}
		addWatch := func() (watchRef, error) {
			uid := casper.UserID(wrng.Intn(cfg.users) + 1)
			var (
				qid casper.ContinuousQueryID
				err error
			)
			switch wrng.Intn(3) {
			case 0:
				qid, _, err = inproc.WatchNearest(uid, casper.PublicData)
			case 1:
				qid, _, err = inproc.WatchNearest(uid, casper.PrivateData)
			default:
				qid, _, err = inproc.WatchRange(uid, rangeRadius, casper.PrivateData)
			}
			return watchRef{uid: uid, qid: qid}, err
		}
		watches := make([]watchRef, 0, cfg.subscribe)
		for len(watches) < cfg.subscribe {
			w, err := addWatch()
			if err != nil {
				return nil, fmt.Errorf("subscribe watch %d: %w", len(watches), err)
			}
			watches = append(watches, w)
		}
		stopChurn = make(chan struct{})
		churnDone = make(chan struct{})
		perTick := cfg.subscribe / 100
		if perTick < 1 {
			perTick = 1
		}
		go func() {
			defer close(churnDone)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopChurn:
					return
				case <-tick.C:
				}
				for i := 0; i < perTick && len(watches) > 0; i++ {
					victim := wrng.Intn(len(watches))
					inproc.Unwatch(watches[victim].uid, watches[victim].qid)
					watches[victim] = watches[len(watches)-1]
					watches = watches[:len(watches)-1]
					contChurned.Add(1)
					if w, err := addWatch(); err == nil {
						watches = append(watches, w)
					}
				}
			}
		}()
	}

	var (
		wg            sync.WaitGroup
		shed          atomic.Int64
		shutdownStart atomic.Int64 // unixnano; 0 until the drain begins
	)
	stats := make([]*workerStats, 0, cfg.conns*cfg.inflight)
	start := time.Now()

	// Shutdown-under-load smoke: part-way into the run, drain the
	// in-process server while the open-loop scheduler keeps offering
	// load. The drain duration and whether it had to force-close
	// connections land in the report; main exits nonzero on a dirty
	// drain.
	var (
		shut     *shutdownReport
		shutDone chan struct{}
	)
	if cfg.shutdownAfter > 0 {
		shut = &shutdownReport{
			AfterSeconds:    cfg.shutdownAfter.Seconds(),
			DeadlineSeconds: cfg.drainDeadline.Seconds(),
		}
		shutDone = make(chan struct{})
		go func() {
			defer close(shutDone)
			time.Sleep(time.Until(start.Add(cfg.shutdownAfter)))
			shutdownStart.Store(time.Now().UnixNano())
			dctx, dcancel := context.WithTimeout(context.Background(), cfg.drainDeadline)
			defer dcancel()
			t0 := time.Now()
			err := srv.Shutdown(dctx)
			shut.DrainSeconds = time.Since(t0).Seconds()
			shut.Forced = err != nil
		}()
	}
	for _, cs := range conns {
		for w := 0; w < cfg.inflight; w++ {
			ws := &workerStats{}
			stats = append(stats, ws)
			wg.Add(1)
			go func(cs *connState, ws *workerStats) {
				defer wg.Done()
				for jb := range cs.jobs {
					var err error
					switch jb.kind {
					case opUpdate:
						p := positions[int(jb.uid-1)]
						err = cs.cl.Update(ctx, jb.uid, p.Pos.X, p.Pos.Y)
					case opNN:
						_, err = cs.cl.NearestPublic(ctx, jb.uid)
					case opKNN:
						_, _, err = cs.cl.KNearestPublic(ctx, jb.uid, 5)
					case opRange:
						_, _, err = cs.cl.RangePublic(ctx, jb.uid, rangeRadius)
					}
					if err != nil {
						switch ss := shutdownStart.Load(); {
						case errors.Is(err, casper.ErrOverloaded):
							ws.shedServer++
						case errors.Is(err, casper.ErrBudgetExhausted):
							ws.shedBudget++
						case ss != 0 && time.Now().UnixNano() >= ss:
							ws.errsDrain++
						default:
							ws.errs++
						}
					} else {
						lat := time.Since(jb.scheduled)
						ws.latencies = append(ws.latencies, lat)
						ws.perOp[jb.kind]++
						if cfg.raw != "" {
							ws.samples = append(ws.samples, sample{
								offset:  jb.scheduled.Sub(start),
								latency: lat,
								kind:    jb.kind,
							})
						}
					}
				}
			}(cs, ws)
		}
	}

	// Open-loop scheduler: exponential inter-arrival times at the
	// target rate, independent of response progress.
	rng := rand.New(rand.NewSource(cfg.seed))
	deadline := start.Add(cfg.duration)
	next := start
	scheduled := int64(0)
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		u := rng.Float64()
		kind := opKind(0)
		for k := opKind(0); k < numOps; k++ {
			if u <= mix[k] {
				kind = k
				break
			}
		}
		jb := job{
			kind:      kind,
			uid:       int64(rng.Intn(cfg.users) + 1),
			scheduled: next,
		}
		cs := conns[int(scheduled)%len(conns)]
		scheduled++
		select {
		case cs.jobs <- jb:
		default:
			shed.Add(1)
		}
	}
	if stopChurn != nil {
		close(stopChurn)
		<-churnDone
	}
	for _, cs := range conns {
		close(cs.jobs)
	}
	wg.Wait()
	if shutDone != nil {
		<-shutDone
	}
	elapsed := time.Since(start)

	// Merge per-worker results.
	var (
		all        []time.Duration
		errs       int64
		errsDrain  int64
		shedServer int64
		shedBudget int64
		perOp      [numOps]int64
	)
	for _, ws := range stats {
		all = append(all, ws.latencies...)
		errs += ws.errs
		errsDrain += ws.errsDrain
		shedServer += ws.shedServer
		shedBudget += ws.shedBudget
		for k := range ws.perOp {
			perOp[k] += ws.perOp[k]
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	rep := &report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Addr:       cfg.addr,
		InProcess:  cfg.addr == "",
		Duration:   elapsed.Seconds(),
		TargetRate: cfg.rate,
		Conns:      cfg.conns,
		InFlight:   cfg.inflight,
		Users:      cfg.users,
		Targets:    cfg.targets,
		Mix:        cfg.mix,
		Seed:       cfg.seed,
		Scheduled:  scheduled,
		Completed:  int64(len(all)),
		Errors:     errs,
		Shed:       shed.Load(),
		ShedServer: shedServer,
		ShedBudget: shedBudget,
		SLOMillis:  float64(cfg.slo) / float64(time.Millisecond),
		PerOp:      make(map[string]int64, numOps),
	}
	if elapsed > 0 {
		rep.AchievedRate = float64(len(all)) / elapsed.Seconds()
	}
	if scheduled > 0 {
		rep.ErrorRate = float64(errs) / float64(scheduled)
		rep.ShedRate = float64(rep.Shed) / float64(scheduled)
	}
	rep.P50Millis = percentileMillis(all, 0.50)
	rep.P99Millis = percentileMillis(all, 0.99)
	rep.P999Millis = percentileMillis(all, 0.999)
	rep.SLOMet = len(all) > 0 && rep.P99Millis <= rep.SLOMillis && errs == 0
	for k := opKind(0); k < numOps; k++ {
		rep.PerOp[opNames[k]] = perOp[k]
	}
	if shut != nil {
		shut.ErrorsBefore = errs
		shut.ErrorsAfter = errsDrain
		shut.Clean = errs == 0 && !shut.Forced
		rep.Shutdown = shut
	}
	if cfg.subscribe > 0 {
		if mon := inproc.Monitor(); mon != nil {
			cr := &continuousReport{
				Subscriptions:      cfg.subscribe,
				Churned:            contChurned.Load(),
				Events:             contEvents.Load(),
				MonitorUpdates:     mon.Updates(),
				MonitorEvaluations: mon.Evaluations(),
				SafeRegionHits:     mon.SafeRegionHits(),
			}
			if cr.MonitorUpdates > 0 {
				cr.EvalsPerUpdate = float64(cr.MonitorEvaluations) / float64(cr.MonitorUpdates)
			}
			rep.Continuous = cr
		}
	}

	// Privacy observatory verdict (in-process only: the observer is
	// process-global, so it saw exactly this run's cloaks). The backend
	// row is the server's configured backend; the aggregate dimensions
	// (k-satisfied, entropy, linkage, ε ledger) are observer-wide.
	if inproc != nil {
		snap := privacyobs.Default.Snapshot()
		pr := &privacyReport{
			Backend:            inproc.Backend(),
			KSatisfiedFraction: snap.KSatisfiedFraction,
			EntropyMeanBits:    snap.Entropy.MeanBits,
			LinkageEstimate:    snap.Linkage.Estimate,
			LinkageEvidence:    snap.Linkage.Evidence,
			EpsilonSpentTotal:  snap.Epsilon.SpentTotal,
			ShedBudget:         shedBudget,
		}
		for _, b := range snap.Backends {
			if b.Backend == pr.Backend {
				pr.Releases = b.Releases
				pr.KP50 = b.KP50
				pr.KP99 = b.KP99
				pr.KViolations = b.KViolations
			}
		}
		rep.Privacy = pr
	}

	if cfg.raw != "" {
		if err := writeRawCSV(cfg.raw, stats); err != nil {
			return nil, err
		}
	}
	if cfg.benchTxt != "" {
		pb, err := parsePipelineBench(cfg.benchTxt)
		if err != nil {
			return nil, err
		}
		rep.PipelineBench = pb
	}
	return rep, nil
}

// writeRawCSV dumps every completed request as offset_ms,latency_ms,op
// ordered by scheduled arrival, for offline tail analysis.
func writeRawCSV(path string, stats []*workerStats) error {
	var all []sample
	for _, ws := range stats {
		all = append(all, ws.samples...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].offset < all[j].offset })
	var sb strings.Builder
	sb.WriteString("offset_ms,latency_ms,op\n")
	for _, s := range all {
		fmt.Fprintf(&sb, "%.3f,%.3f,%s\n",
			float64(s.offset)/float64(time.Millisecond),
			float64(s.latency)/float64(time.Millisecond),
			opNames[s.kind])
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// percentileMillis returns the q-quantile of sorted latencies in
// milliseconds (nearest-rank), or NaN-free 0 for an empty run.
func percentileMillis(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
