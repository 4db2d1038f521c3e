// Command casperd runs a Casper deployment: the location anonymizer
// and the privacy-aware location-based database server behind one
// TCP endpoint speaking the pipelined binary wire (see internal/protocol).
//
// Usage:
//
//	casperd [flags]
//
//	-addr        listen address                (default 127.0.0.1:7467)
//	-extent      universe side length, meters  (default 40000)
//	-levels      pyramid height H              (default 9)
//	-backend     privacy backend: basic | adaptive | cluster | geoind
//	             (default adaptive)
//	-epsilon     geoind base privacy budget ε  (default backend's)
//	-min-k       cluster k-anonymity floor     (default off)
//	-filters     query filters: 1, 2 or 4      (default 4)
//	-targets     preloaded public objects      (default 10000)
//	-seed        workload seed                 (default 1)
//	-wal         write-ahead log path          (default none)
//	-debug-addr  observability HTTP endpoint   (default off)
//	-slow-query  slow-query log threshold      (default off)
//	-trace       request tracing on/off        (default on)
//	-trace-sample  head-sample 1 in N requests (default 16)
//	-ready-max-snapshot-age  /readyz staleness bound (default off)
//	-tls-cert / -tls-key     serve TLS on the RPC port (default off)
//	-tls-client-ca           require CA-signed client certs (mTLS)
//	-config      runtime-reloadable config file (default none)
//	-drain       graceful-shutdown drain deadline (default 10s)
//	-rate-limit  per-user token-bucket req/s   (default off)
//	-rate-burst  per-user bucket size          (default 2x rate)
//	-max-concurrent  global in-flight ceiling  (default off)
//	-epsilon-budget  per-user cumulative ε ceiling (default off)
//	-slo-min-k-satisfied  privacy-SLO floor on the k-satisfied
//	             fraction of region releases   (default off)
//	-slo-max-linkage  privacy-SLO ceiling on the online linkage
//	             estimate                      (default off)
//
// Lifecycle: on the first SIGINT/SIGTERM casperd flips /readyz to 503,
// stops accepting, finishes in-flight requests up to the drain
// deadline, force-closes stragglers, syncs the WAL, and exits 0. A
// second signal during the drain forces an immediate nonzero exit.
// SIGHUP (or POST /-/reload on the debug endpoint) re-reads -config
// and applies the reloadable keys — slow-query threshold, trace
// sampling, rate limits, drain deadline — without a restart; a file
// that fails to parse changes nothing. See DESIGN.md §10.
//
// With -debug-addr set (e.g. ":6060"), casperd serves /metrics
// (Prometheus text format), /healthz (liveness), /readyz (readiness:
// 503 when the WAL directory is unwritable or the published query
// snapshot is older than -ready-max-snapshot-age with writes
// pending), /debug/traces (recent request traces; ?id= for a full
// span listing), /debug/privacy (the live privacy observatory:
// per-backend achieved-k, windowed entropy, linkage estimate, ε-budget
// ledger, SLO verdict), and /debug/pprof/* on that address; with -slow-query
// set (e.g. 50ms), every request slower than the threshold is logged
// with its cloak/query/transmit breakdown and its trace is always
// retained in the ring regardless of sampling. See DESIGN.md §8.
//
// Try it with casperctl (raw sends one hand-written JSON request):
//
//	$ casperd &
//	$ casperctl register 7 100 100 1
//	$ casperctl raw '{"op":"nn_public","uid":7}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"casper"
	"casper/internal/metrics"
	"casper/internal/trace"
)

// version identifies the build; override at link time with
// -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	addr := flag.String("addr", "127.0.0.1:7467", "listen address")
	extent := flag.Float64("extent", 40000, "universe side length in meters")
	levels := flag.Int("levels", 9, "pyramid height")
	backend := flag.String("backend", "", "privacy backend: basic, adaptive, cluster or geoind (default adaptive)")
	epsilon := flag.Float64("epsilon", 0, "geoind base privacy budget ε; 0 keeps the backend default")
	minK := flag.Int("min-k", 0, "cluster backend k-anonymity floor; 0 disables")
	filters := flag.Int("filters", 4, "query processor filters: 1, 2 or 4")
	targets := flag.Int("targets", 10000, "number of preloaded public target objects")
	seed := flag.Int64("seed", 1, "seed for target placement")
	walPath := flag.String("wal", "", "write-ahead log path; empty disables persistence")
	debugAddr := flag.String("debug-addr", "", "address for /metrics, /healthz, /readyz, /debug/traces and /debug/pprof; empty disables")
	slowQuery := flag.Duration("slow-query", 0, "log requests slower than this (e.g. 50ms); 0 disables")
	traceOn := flag.Bool("trace", true, "record per-request traces into the /debug/traces ring")
	traceSample := flag.Int("trace-sample", 16, "head-sample 1 in N successful requests (1 = all, 0 = none; slow and errored requests are always kept)")
	readyMaxSnapAge := flag.Duration("ready-max-snapshot-age", 0, "/readyz fails when the query snapshot is older than this with writes pending; 0 disables")
	maxInFlight := flag.Int("max-inflight", 0, "per-connection cap on concurrently dispatched requests (0 = default)")
	tlsCert := flag.String("tls-cert", "", "PEM server certificate; with -tls-key, serves TLS on the RPC port")
	tlsKey := flag.String("tls-key", "", "PEM server key for -tls-cert")
	tlsClientCA := flag.String("tls-client-ca", "", "PEM CA bundle; when set, clients must present a certificate it signed (mTLS)")
	configPath := flag.String("config", "", "runtime-reloadable config file (JSON); reloaded on SIGHUP or POST /-/reload")
	drainDeadline := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	rateLimit := flag.Float64("rate-limit", 0, "per-user token-bucket rate limit in req/s; 0 disables")
	rateBurst := flag.Float64("rate-burst", 0, "per-user token-bucket burst size (0 = 2x -rate-limit)")
	maxConcurrent := flag.Int("max-concurrent", 0, "global in-flight request ceiling; excess is shed with the retryable overloaded code; 0 disables")
	epsilonBudget := flag.Float64("epsilon-budget", 0, "per-user cumulative ε ceiling; further cloaks for an exhausted user fail with the budget_exhausted code; 0 disables")
	sloMinKSat := flag.Float64("slo-min-k-satisfied", 0, "privacy-SLO floor on the fraction of region releases meeting requested k, in (0,1]; 0 disables")
	sloMaxLinkage := flag.Float64("slo-max-linkage", 0, "privacy-SLO ceiling on the online linkage estimate, in (0,1]; 0 disables")
	flag.Parse()

	if (*tlsCert == "") != (*tlsKey == "") {
		fmt.Fprintln(os.Stderr, "casperd: -tls-cert and -tls-key must be set together")
		os.Exit(2)
	}
	if *tlsClientCA != "" && *tlsCert == "" {
		fmt.Fprintln(os.Stderr, "casperd: -tls-client-ca requires -tls-cert/-tls-key")
		os.Exit(2)
	}

	metrics.RegisterBuildInfo(version)
	slog.Info("casperd starting",
		"version", version,
		"goversion", runtime.Version(),
		"gomaxprocs", runtime.GOMAXPROCS(0))

	trace.SetEnabled(*traceOn)
	trace.SetSampleEvery(int64(*traceSample))

	cfg := casper.DefaultConfig()
	cfg.Universe = casper.R(0, 0, *extent, *extent)
	cfg.PyramidLevels = *levels
	cfg.Query.Filters = *filters
	backendName := *backend
	if backendName == "" {
		backendName = casper.AdaptiveBackend
	}
	if !slices.Contains(casper.Backends(), backendName) {
		fmt.Fprintf(os.Stderr, "casperd: unknown backend %q (registered: %s)\n",
			backendName, strings.Join(casper.Backends(), ", "))
		os.Exit(2)
	}
	// Explicitly passing a knob demands a usable value; only the unset
	// zero defers to the backend's default.
	if *epsilon != 0 && (!(*epsilon > 0) || math.IsInf(*epsilon, 0)) {
		fmt.Fprintf(os.Stderr, "casperd: -epsilon %v must be finite and > 0\n", *epsilon)
		os.Exit(2)
	}
	if *minK < 0 {
		fmt.Fprintf(os.Stderr, "casperd: -min-k %d must be >= 1 (0 disables)\n", *minK)
		os.Exit(2)
	}
	if *epsilonBudget != 0 && (!(*epsilonBudget > 0) || math.IsInf(*epsilonBudget, 0)) {
		fmt.Fprintf(os.Stderr, "casperd: -epsilon-budget %v must be finite and > 0 (0 disables)\n", *epsilonBudget)
		os.Exit(2)
	}
	if !(*sloMinKSat >= 0) || *sloMinKSat > 1 {
		fmt.Fprintf(os.Stderr, "casperd: -slo-min-k-satisfied %v must be in [0,1]\n", *sloMinKSat)
		os.Exit(2)
	}
	if !(*sloMaxLinkage >= 0) || *sloMaxLinkage > 1 {
		fmt.Fprintf(os.Stderr, "casperd: -slo-max-linkage %v must be in [0,1]\n", *sloMaxLinkage)
		os.Exit(2)
	}
	cfg.Backend = backendName
	cfg.BackendEpsilon = *epsilon
	cfg.BackendMinK = *minK

	cfg.WALPath = *walPath
	c, err := casper.New(cfg)
	if err != nil {
		slog.Error("open", "err", err)
		os.Exit(1)
	}
	if *walPath != "" {
		slog.Info("durable server: WAL recovered",
			"path", *walPath,
			"public", c.Server().PublicCount(),
			"private", c.Server().PrivateCount())
	}
	// Preload targets only when the (possibly recovered) table is empty.
	if *targets > 0 && c.Server().PublicCount() == 0 {
		if err := c.LoadPublicObjects(casper.UniformTargets(cfg.Universe, *targets, *seed)); err != nil {
			slog.Error("load public targets", "err", err)
			os.Exit(1)
		}
		slog.Info("loaded public targets", "targets", *targets, "extent_m", *extent)
	}

	srv := casper.NewProtocolServer(c)
	srv.MaxInFlight = *maxInFlight
	if *tlsCert != "" {
		tcfg, err := buildTLSConfig(*tlsCert, *tlsKey, *tlsClientCA)
		if err != nil {
			slog.Error("tls", "err", err)
			os.Exit(1)
		}
		srv.TLSConfig = tcfg
		slog.Info("tls enabled", "cert", *tlsCert, "mtls", *tlsClientCA != "")
	}

	// The flag-derived baseline for every runtime-reloadable knob; the
	// -config file (now and on every reload) overlays it.
	burst := *rateBurst
	if burst <= 0 {
		burst = 2 * *rateLimit
	}
	rel, err := newReloader(srv, settings{
		slowQuery:        *slowQuery,
		traceSample:      *traceSample,
		rateLimitRPS:     *rateLimit,
		rateLimitBurst:   burst,
		maxConcurrent:    *maxConcurrent,
		drainDeadline:    *drainDeadline,
		backend:          backendName,
		backendEpsilon:   *epsilon,
		backendMinK:      *minK,
		epsilonBudget:    *epsilonBudget,
		sloMinKSatisfied: *sloMinKSat,
		sloMaxLinkage:    *sloMaxLinkage,
	}, *configPath)
	if err != nil {
		slog.Error("config", "path", *configPath, "err", err)
		os.Exit(1)
	}

	// draining flips /readyz to 503 the moment shutdown starts, so load
	// balancers stop routing here while in-flight requests finish.
	var draining atomic.Bool
	if *debugAddr != "" {
		ready := readiness(c, *walPath, *readyMaxSnapAge, &draining)
		var reloadFn func() error
		if *configPath != "" {
			reloadFn = rel.Reload
		}
		dbgBound, stopDebug, err := startDebugServer(*debugAddr, ready, reloadFn)
		if err != nil {
			slog.Error("debug listen", "err", err)
			os.Exit(1)
		}
		defer stopDebug()
		slog.Info("observability endpoints up", "addr", dbgBound.String(),
			"endpoints", "/metrics /healthz /readyz /debug/traces /debug/privacy /debug/pprof /-/reload")
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		slog.Error("listen", "err", err)
		os.Exit(1)
	}
	slog.Info("serving",
		"addr", bound.String(),
		"pyramid_levels", *levels,
		"backend", c.Backend(),
		"filters", *filters,
		"tls", *tlsCert != "",
		"trace", *traceOn,
		"trace_sample", trace.SampleEvery())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
serveLoop:
	for {
		select {
		case <-hup:
			if *configPath == "" {
				slog.Warn("SIGHUP ignored: no -config file to reload")
				continue
			}
			if rel.Reload() == nil {
				slog.Info("config reloaded on SIGHUP", "path", *configPath)
			}
		case <-sig:
			break serveLoop
		}
	}

	// Drain: readiness flips first, then the front door stops accepting
	// and finishes in-flight work. A second signal must stay an escape
	// hatch — a wedged drain cannot hold the process hostage.
	draining.Store(true)
	deadline := rel.drainDeadline()
	slog.Info("shutting down: draining", "deadline", deadline)
	go func() {
		<-sig
		slog.Error("second signal during drain: forcing exit")
		os.Exit(1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		slog.Warn("drain deadline expired; remaining connections force-closed", "err", err)
	} else {
		slog.Info("drained cleanly")
	}
	// Final WAL sync: flush and close the framework only after the last
	// in-flight request has been answered.
	if err := c.Close(); err != nil {
		slog.Error("close", "err", err)
		os.Exit(1)
	}
}

// readiness builds the /readyz check: the process should be taken out
// of rotation when it is draining for shutdown, when the WAL directory
// stops being writable (appends are about to start failing), or when
// the published query snapshot has fallen further than maxSnapAge
// behind attempted writes (the batcher is wedged). Liveness is
// unaffected — a drained instance still answers /healthz.
func readiness(c *casper.Casper, walPath string, maxSnapAge time.Duration, draining *atomic.Bool) func() error {
	return func() error {
		if draining != nil && draining.Load() {
			return errors.New("draining: shutting down")
		}
		if walPath != "" {
			if err := probeDirWritable(filepath.Dir(walPath)); err != nil {
				return fmt.Errorf("wal directory not writable: %w", err)
			}
		}
		if maxSnapAge > 0 {
			if stale, age := c.Server().SnapshotStale(maxSnapAge); stale {
				return fmt.Errorf("query snapshot is %s old with writes pending (bound %s)",
					age.Round(time.Millisecond), maxSnapAge)
			}
		}
		return nil
	}
}

// probeDirWritable verifies dir accepts new files by creating and
// removing a temp file — the same operation a WAL compaction swap
// performs, so it fails exactly when durability would.
func probeDirWritable(dir string) error {
	f, err := os.CreateTemp(dir, ".readyz-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Remove(name); err != nil {
		return err
	}
	return nil
}
