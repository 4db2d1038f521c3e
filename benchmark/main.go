// Command benchmark is the repository benchmark: it builds an in-process
// casperd equivalent, drives it over wire protocol v2 with a seeded
// closed-loop workload, checks the answers against a brute-force oracle
// and prints every metric by name with its unit. See README.md here and
// BENCHMARK.json at the root of the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"casper/internal/stats"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run of one workload.
type runConfig struct {
	wl      workload
	seed    int64
	seconds float64 // sizes the script and caps each phase
	trace   bool    // report the per-layer metrics instead of the end-to-end ones
	sc      scale
	scratch string // directory for WAL files
	out     string // directory for trace files
}

// downlinkUsers is how many users ask each query kind when response
// bytes are measured after the timed phase.
const downlinkUsers = 2500

// pinnedProcs is the GOMAXPROCS every run uses, whatever the machine: the
// sandbox the bounds were calibrated on has two cores.
const pinnedProcs = 2

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: read_heavy, write_heavy, public_churn or continuous_watch")
		seed    = flag.Int64("seed", 1, "seed of the world and the op streams")
		seconds = flag.Float64("seconds", 0, "budget of the timed phase, which also sizes the script; 0: run_seconds of -spec")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics (traced run) instead of the end-to-end ones")
		repeat  = flag.Int("repeat", 0, "run every workload this many times, one seed each, and report the spread")
		scratch = flag.String("scratch", "benchmark/out/tmp", "directory for the run's WAL files")
		out     = flag.String("out", "benchmark/out", "directory for trace-<workload>.json")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition")
		history = flag.String("history", "", "with -repeat: append the medians to this JSON-lines file")
		commit  = flag.String("commit", "", "with -history: the commit the medians belong to")
	)
	flag.Parse()
	runtime.GOMAXPROCS(pinnedProcs)
	if *seconds == 0 {
		sp, err := loadSpec(*spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		*seconds = float64(sp.RunSeconds)
	}
	if *repeat > 0 {
		os.Exit(repeatAll(*repeat, *seed, *seconds, *spec, *scratch, *out, *history, *commit))
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, notes, err := run(runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace != 0,
		sc: fullScale, scratch: *scratch, out: *out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s users=%d targets=%d\n",
		wl.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		fullScale.users, fullScale.targets)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// heapAlloc is the live heap. The second collection empties the
// sync.Pool victim caches, whose content depends on timing.
func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func us(ns float64) float64 { return ns / 1e3 }

// run executes one workload once and returns its metrics: the end-to-end
// ones from an untraced run, or the per-layer ones from a traced run.
func run(cfg runConfig) (result, []string, error) {
	dir, err := scratchDir(cfg.scratch)
	if err != nil {
		return result{}, nil, err
	}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2 // the other half goes to the traced pass
	}
	// The script: each worker's next perWorker ops, the first tenth of
	// them an untimed warm-up. Fixed work, so that counts compare from
	// commit to commit; the budget only cuts a run short when the program
	// has become much slower than the script was sized for.
	perWorker := cfg.wl.scriptOps(budget)
	warmOps := perWorker / 10
	t0 := time.Now()
	w := newWorld(cfg.seed, cfg.sc)
	dr := newDriver(w, cfg.wl, perWorker-warmOps)
	worldTook := time.Since(t0)

	// The heap baseline is taken just before set-up, after everything the
	// harness itself holds for the run (world, streams, sample buffers,
	// target log) exists, so heap_mb is the program's memory and not the
	// harness's.
	base := heapAlloc()
	t0 = time.Now()
	d, setupTook, err := setUp(w, cfg.wl, cfg.sc, dir, nil)
	if err != nil {
		return result{}, nil, err
	}
	refreshTook := time.Since(t0) - setupTook
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	if err := dr.connect(d); err != nil {
		return result{}, nil, err
	}
	defer dr.close()

	limit := time.Duration(budget * float64(time.Second))
	warm := dr.run(warmOps, time.Now().Add(limit)) // latencies not reported
	ph := dr.run(perWorker-warmOps, time.Now().Add(limit))
	heap := heapAlloc() - base
	t0 = time.Now()
	downlink, probe := dr.downlink(downlinkUsers)
	probeTook := time.Since(t0)

	total := warm.tally
	total.add(ph.tally)
	total.add(probe)
	res := result{Attempted: total.attempted, Failed: total.failed, Correct: total.failed == 0, Metrics: make(map[string]metric)}
	var notes []string
	if total.firstErr != nil {
		notes = append(notes, "first failure: "+total.firstErr.Error())
	}
	if warm.capped || ph.capped {
		notes = append(notes, fmt.Sprintf("the %g s budget ended before the script did: counts of this run do not compare with a full one", budget))
	}
	queries := dr.sorted(queryKinds...)
	nQueries := len(queries)
	qp50, qp95, qp99 := quantile(queries, 0.50), quantile(queries, 0.95), quantile(queries, 0.99)
	updates := dr.sorted(opUpdate)
	nUpdates := len(updates)
	up50, up95, up99 := quantile(updates, 0.50), quantile(updates, 0.95), quantile(updates, 0.99)
	notes = append(notes, fmt.Sprintf("script %d ops a worker (%d warm-up); timed phase %.3f s, %d ops (%d queries, %d updates, %d no_buddies); oracle checked %d in the phases and %d after them",
		perWorker, warmOps, ph.elapsed.Seconds(), ph.attempted, nQueries, nUpdates, total.noBuddies, warm.checked+ph.checked, probe.checked))
	notes = append(notes, fmt.Sprintf("harness time: world %.1f s, refresh sweep %.1f s, warm-up %.1f s, downlink probe %.1f s",
		worldTook.Seconds(), refreshTook.Seconds(), warm.elapsed.Seconds(), probeTook.Seconds()))
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	if !cfg.trace {
		put("setup_s", setupTook.Seconds(), "s")
		put("ops_per_s", float64(ph.attempted-ph.failed)/ph.elapsed.Seconds(), "1/s")
		put("downlink_bytes_per_query", downlink, "B")
		put("heap_mb", heap/(1<<20), "MB")
		put("answered_frac", 1-ratio(float64(total.failed), float64(total.attempted)), "ratio")
		return res, notes, nil
	}

	p50 := func(k opKind) float64 { return us(quantile(dr.sorted(k), 0.5)) }
	put("protocol.nn_public_p50_us", p50(opNNPublic), "us")
	put("protocol.knn_public_p50_us", p50(opKNNPublic), "us")
	put("protocol.range_public_p50_us", p50(opRangePublic), "us")
	put("protocol.nn_buddy_p50_us", p50(opNNBuddy), "us")
	put("protocol.update_batch_us_per_entry", p50(opUpdateBatch)/batchSize, "us")
	put("protocol.add_public_p50_us", p50(opAddPublic), "us")
	put("protocol.query_p50_us", us(qp50), "us")
	put("protocol.query_p95_us", us(qp95), "us")
	put("protocol.query_p99_us", us(qp99), "us")
	put("protocol.update_p50_us", us(up50), "us")
	put("protocol.update_p95_us", us(up95), "us")
	put("protocol.update_p99_us", us(up99), "us")
	put("protocol.req_bytes_per_op", ratio(float64(ph.bytesIn), float64(ph.attempted)), "B")
	put("server.cache_hit_frac", ratio(float64(ph.cacheHits), float64(ph.cacheHits+ph.cacheMisses)), "ratio")
	put("privacyqp.no_buddies_frac", ratio(float64(ph.noBuddies), float64(len(dr.sorted(opNNBuddy)))), "ratio")
	put("harness.samples_query", float64(nQueries), "count")
	put("harness.samples_update", float64(nUpdates), "count")
	put("harness.oracle_checked", float64(total.checked), "count")
	put("harness.failed_frac", ratio(float64(total.failed), float64(total.attempted)), "ratio")
	overhead, err := dr.wireOverheadUS()
	if err != nil {
		return result{}, nil, err
	}
	put("protocol.overhead_us", overhead, "us")
	// The wire half is over: free its deployment before the traced pass
	// builds a second one.
	dr.close()
	err = d.close()
	d = nil
	if err != nil {
		return result{}, nil, err
	}
	if err := tracedPass(cfg, w, dir, put, &notes); err != nil {
		return result{}, nil, err
	}
	return res, notes, nil
}

// ratio is a/b, and 0 when the workload has no such thing to count.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass is the second half of a traced run: a fixed number of ops
// from fresh streams of the same seed, walked single-threaded through a
// fresh real instance and the standalone layer instances.
func tracedPass(cfg runConfig, w *world, dir string, put func(string, float64, string), notes *[]string) error {
	spanCost := spanCostNS()
	tr := newTracer()
	l, err := buildLayers(w, cfg.wl, cfg.sc, dir, tr)
	if err != nil {
		return err
	}
	streams := make([]*stream, numWorkers)
	for i := range streams {
		streams[i] = newStream(w, cfg.wl, i)
	}
	nOps := max(numWorkers, cfg.wl.traced/cfg.sc.div)
	passStart := time.Now()
	spansBefore := len(tr.spans)
	for j := 0; j < nOps; j++ {
		o, _ := streams[j%numWorkers].next()
		tr.beginOp(j, o.kind)
		l.step(o)
		tr.endOp()
		if l.err != nil {
			l.close()
			return l.err
		}
	}
	passNS := float64(time.Since(passStart).Nanoseconds())
	passSpans := float64(len(tr.spans) - spansBefore)
	replayS, err := l.close()
	if err != nil {
		return err
	}

	durs := tr.durationsUS()
	for name, v := range l.vals {
		durs[name] = v
	}
	of := func(name string) *stats.Summary {
		if s := durs[name]; s != nil {
			return s
		}
		return &stats.Summary{} // nothing of the kind in this workload: reads as 0
	}
	med := func(name string) float64 { return of(name).Median() }
	for _, m := range []string{
		"core.update_user", "core.nearest_public", "core.nearest_buddy", "core.knearest_public",
		"core.range_public", "core.register_user",
		"anonymizer.update", "anonymizer.cloak",
		"server.upsert_private", "server.add_public", "server.nn_public_hit", "server.nn_public_miss",
		"privacyqp.nn_public", "privacyqp.nn_private", "privacyqp.knn_public", "privacyqp.range_public",
		"rtree.clone", "rtree.nearest_k", "rtree.search", "rtree.insert_delete",
		"wal.append", "continuous.watch_register",
	} {
		put(m+"_us", med(m), "us")
	}
	for _, m := range []string{
		"core.update_users_us_per_entry", "core.cloak_us", "core.query_us", "core.transmit_us",
		"server.upsert_batch_us_per_entry",
	} {
		put(m, med(m), "us")
	}
	// A mean, not a median: most updates touch no standing query, a few
	// touch many, and the monitor's busy time is what the update path pays.
	put("continuous.apply_us_per_update", of("continuous.apply_us_per_update").Mean(), "us")
	put("core.alloc_bytes_per_op", ratio(float64(l.allocBytes), float64(l.coreCalls)), "B")
	put("anonymizer.update_cost_per_update", ratio(float64(l.costUnits), float64(l.costUpdates)), "count")
	put("anonymizer.k_satisfied_frac", ratio(float64(l.kSat), float64(l.cloaks)), "ratio")
	put("anonymizer.cloak_area_cells_p50", med("anonymizer.cloak_area_cells"), "count")
	put("privacyqp.candidates_per_nn_public", of("privacyqp.candidates_per_nn_public").Mean(), "count")
	put("privacyqp.candidates_per_nn_buddy", of("privacyqp.candidates_per_nn_buddy").Mean(), "count")
	put("privacyqp.buddy_inclusive_frac", ratio(float64(l.buddyIncl), float64(l.buddies)), "ratio")
	put("wal.bytes_per_update", ratio(float64(l.walBytes), float64(l.costUpdates)), "B")
	put("wal.sync_ms", med("wal.sync")/1e3, "ms")
	put("wal.replay_s", replayS, "s")
	var updates, evals, safe, highWater float64
	if l.mon != nil {
		updates = float64(l.mon.Updates() - l.monBase[0])
		evals, safe = float64(l.mon.Evaluations()-l.monBase[1]), float64(l.mon.SafeRegionHits()-l.monBase[2])
		_, hw := l.mon.QueueStats()
		highWater = float64(hw)
	}
	put("continuous.evals_per_update", ratio(evals, updates), "count")
	put("continuous.safe_hit_frac", ratio(safe, updates), "ratio")
	put("continuous.events_per_update", ratio(float64(l.events.Load()), updates), "count")
	put("continuous.queue_high_water", highWater, "count")
	put("continuous.event_lag_p50_us", l.lagUS.Median(), "us")
	put("harness.trace_overhead_frac", spanCost*passSpans/passNS, "ratio")

	*notes = append(*notes, fmt.Sprintf("traced pass: %d ops, %d spans, %.3f s, %.0f ns per span",
		nOps, len(tr.spans), passNS/1e9, spanCost))
	return tr.write(filepath.Join(cfg.out, "trace-"+cfg.wl.name+".json"), map[string]any{
		"workload": cfg.wl.name, "seed": cfg.seed, "ops": nOps,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	})
}
