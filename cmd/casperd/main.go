// Command casperd runs a Casper deployment: the location anonymizer
// and the privacy-aware location-based database server behind one
// TCP endpoint speaking the pipelined binary wire (see internal/protocol).
//
// Usage:
//
//	casperd [flags]
//
// casperd -h lists every flag with its default. The twelve runtime
// settings, -slow-query through -slo-max-linkage, are declared once in
// internal/config, next to their config file keys; the other flags
// (listen address, universe, pyramid height, WAL, TLS, debug endpoint)
// take effect at startup only.
//
// Lifecycle: on the first SIGINT/SIGTERM casperd flips /readyz to 503,
// stops accepting, finishes in-flight requests up to the drain
// deadline, force-closes stragglers, syncs the WAL, and exits 0. A
// second signal during the drain forces an immediate nonzero exit.
// SIGHUP (or POST /-/reload on the debug endpoint) re-reads -config
// and applies the reloadable keys — the twelve flags from -slow-query
// to -slo-max-linkage, declared in internal/config — without a
// restart; keys absent from the file take their flag values, and a
// file that fails to parse changes nothing. A flag value is checked by
// the same rule as its file key. See DESIGN.md §10.
//
// With -debug-addr set (e.g. ":6060"), casperd serves /metrics
// (Prometheus text format), /healthz (liveness), /readyz (readiness:
// 503 when the WAL directory is unwritable or the published query
// snapshot is older than -ready-max-snapshot-age with writes
// pending), /debug/traces (recent request traces; ?id= for a full
// span listing), /debug/stats (the operator snapshot as JSON: the
// core.Stats document — deployment counters, continuous monitor, the
// full privacy observatory — plus every metric
// family as typed values), and /debug/pprof/* on that address; with -slow-query
// set (e.g. 50ms), every request slower than the threshold is logged
// with its cloak/query breakdown and its trace is always
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
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"casper"
	"casper/internal/config"
	"casper/internal/metrics"
	"casper/internal/trace"
)

// version identifies the build; override at link time with
// -ldflags "-X main.version=v1.2.3".
var version = "dev"

// options is casperd's command line: the startup-only flags, and the
// runtime settings the -config file is read onto.
type options struct {
	addr, walPath, debugAddr     string
	tlsCert, tlsKey, tlsClientCA string
	configPath                   string
	extent                       float64
	levels, targets              int
	maxInFlight                  int
	seed                         int64
	traceOn                      bool
	readyMaxSnapAge              time.Duration
	settings                     config.Settings
}

// parseFlags parses args (without the program name) and checks them;
// an invalid runtime setting is refused with the message its config
// file key gets.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("casperd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7467", "listen address")
	fs.Float64Var(&o.extent, "extent", 40000, "universe side length in meters")
	fs.IntVar(&o.levels, "levels", 9, "pyramid height")
	fs.IntVar(&o.targets, "targets", 10000, "number of preloaded public target objects")
	fs.Int64Var(&o.seed, "seed", 1, "seed for target placement")
	fs.StringVar(&o.walPath, "wal", "", "write-ahead log path; empty disables persistence")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "address for /metrics, /healthz, /readyz, /debug/traces, /debug/stats and /debug/pprof; empty disables")
	fs.BoolVar(&o.traceOn, "trace", true, "record per-request traces into the /debug/traces ring")
	fs.DurationVar(&o.readyMaxSnapAge, "ready-max-snapshot-age", 0, "/readyz fails when the query snapshot is older than this with writes pending; 0 disables")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "per-connection cap on concurrently dispatched requests (0 = default)")
	fs.StringVar(&o.tlsCert, "tls-cert", "", "PEM server certificate; with -tls-key, serves TLS on the RPC port")
	fs.StringVar(&o.tlsKey, "tls-key", "", "PEM server key for -tls-cert")
	fs.StringVar(&o.tlsClientCA, "tls-client-ca", "", "PEM CA bundle; when set, clients must present a certificate it signed (mTLS)")
	fs.StringVar(&o.configPath, "config", "", "runtime-reloadable config file (JSON); reloaded on SIGHUP or POST /-/reload")
	o.settings.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if (o.tlsCert == "") != (o.tlsKey == "") {
		return o, errors.New("-tls-cert and -tls-key must be set together")
	}
	if o.tlsClientCA != "" && o.tlsCert == "" {
		return o, errors.New("-tls-client-ca requires -tls-cert/-tls-key")
	}
	return o, o.settings.Validate()
}

func main() {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "casperd:", err)
		os.Exit(2)
	}

	metrics.RegisterBuildInfo(version)
	slog.Info("casperd starting",
		"version", version,
		"goversion", runtime.Version(),
		"gomaxprocs", runtime.GOMAXPROCS(0))

	trace.SetEnabled(o.traceOn)

	cfg := casper.DefaultConfig()
	cfg.Universe = casper.R(0, 0, o.extent, o.extent)
	cfg.PyramidLevels = o.levels
	cfg.Backend = o.settings.Backend
	cfg.BackendEpsilon = o.settings.BackendEpsilon
	cfg.BackendMinK = o.settings.BackendMinK
	cfg.WALPath = o.walPath
	c, err := casper.New(cfg)
	if err != nil {
		slog.Error("open", "err", err)
		os.Exit(1)
	}
	if o.walPath != "" {
		slog.Info("durable server: WAL recovered",
			"path", o.walPath,
			"public", c.Server().PublicCount(),
			"private", c.Server().PrivateCount())
	}
	// Preload targets only when the (possibly recovered) table is empty.
	if o.targets > 0 && c.Server().PublicCount() == 0 {
		if err := c.LoadPublicObjects(casper.UniformTargets(cfg.Universe, o.targets, o.seed)); err != nil {
			slog.Error("load public targets", "err", err)
			os.Exit(1)
		}
		slog.Info("loaded public targets", "targets", o.targets, "extent_m", o.extent)
	}

	srv := casper.NewProtocolServer(c)
	srv.MaxInFlight = o.maxInFlight
	if o.tlsCert != "" {
		tcfg, err := buildTLSConfig(o.tlsCert, o.tlsKey, o.tlsClientCA)
		if err != nil {
			slog.Error("tls", "err", err)
			os.Exit(1)
		}
		srv.TLSConfig = tcfg
		slog.Info("tls enabled", "cert", o.tlsCert, "mtls", o.tlsClientCA != "")
	}

	// The flag settings are the baseline the -config file (now and on
	// every reload) is read onto.
	rel, err := newReloader(srv, o.settings, o.configPath)
	if err != nil {
		slog.Error("config", "path", o.configPath, "err", err)
		os.Exit(1)
	}

	// draining flips /readyz to 503 the moment shutdown starts, so load
	// balancers stop routing here while in-flight requests finish.
	var draining atomic.Bool
	if o.debugAddr != "" {
		ready := readiness(c, o.walPath, o.readyMaxSnapAge, &draining)
		var reloadFn func() error
		if o.configPath != "" {
			reloadFn = rel.Reload
		}
		dbgBound, stopDebug, err := startDebugServer(o.debugAddr, c, ready, reloadFn)
		if err != nil {
			slog.Error("debug listen", "err", err)
			os.Exit(1)
		}
		defer stopDebug()
		slog.Info("observability endpoints up", "addr", dbgBound.String(),
			"endpoints", "/metrics /healthz /readyz /debug/traces /debug/stats /debug/pprof /-/reload")
	}

	bound, err := srv.Listen(o.addr)
	if err != nil {
		slog.Error("listen", "err", err)
		os.Exit(1)
	}
	slog.Info("serving",
		"addr", bound.String(),
		"pyramid_levels", o.levels,
		"backend", c.Backend(),
		"tls", o.tlsCert != "",
		"trace", o.traceOn,
		"trace_sample", trace.SampleEvery())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
serveLoop:
	for {
		select {
		case <-hup:
			if o.configPath == "" {
				slog.Warn("SIGHUP ignored: no -config file to reload")
				continue
			}
			if rel.Reload() == nil {
				slog.Info("config reloaded on SIGHUP", "path", o.configPath)
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
