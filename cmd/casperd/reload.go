package main

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"log/slog"
	"os"
	"sync/atomic"
	"time"

	"casper"
	"casper/internal/config"
	"casper/internal/metrics"
	"casper/internal/privacyobs"
	"casper/internal/trace"
)

// configReloads counts hot config reloads by result; the generation
// gauge makes "did my SIGHUP land?" answerable from /metrics alone.
var (
	configReloads = metrics.Default.CounterVec(
		"casper_config_reloads_total", "result",
		"Hot config reloads (SIGHUP or /-/reload), by result (ok, error).")
	configGeneration = metrics.Default.Gauge(
		"casper_config_generation", "",
		"Monotonic generation of the applied runtime config; bumps on every successful reload.")
)

// Resolve both result children eagerly so the series exist from the
// first scrape and the metric inventory audit sees the family.
var _ = []*metrics.Counter{configReloads.With("ok"), configReloads.With("error")}

// reloader applies runtime config to the live server and trace layer.
// Reload (SIGHUP or POST /-/reload) re-reads the file onto the flag
// settings and applies the result; a file that fails to parse or
// validate changes nothing.
type reloader struct {
	path  string          // config file; "" means reloads are no-ops
	base  config.Settings // the flag settings every file is read onto
	srv   *casper.ProtocolServer
	drain atomic.Int64 // current drain deadline (ns), read at shutdown
	gen   atomic.Int64
}

// newReloader applies base (with the config file read onto it when
// path is set) and returns the reloader driving future reloads.
func newReloader(srv *casper.ProtocolServer, base config.Settings, path string) (*reloader, error) {
	r := &reloader{path: path, base: base, srv: srv}
	if path == "" {
		return r, r.apply(base)
	}
	s, err := config.Load(path, base)
	if err != nil {
		return nil, err
	}
	return r, r.apply(s)
}

// Reload re-reads the config file and applies it; the error (if any)
// is also what the /-/reload endpoint reports.
func (r *reloader) Reload() error {
	if r.path == "" {
		return fmt.Errorf("no -config file to reload")
	}
	s, err := config.Load(r.path, r.base)
	if err != nil {
		configReloads.With("error").Inc()
		slog.Error("config reload rejected; keeping current config", "path", r.path, "err", err)
		return err
	}
	if err := r.apply(s); err != nil {
		configReloads.With("error").Inc()
		slog.Error("config reload rejected; keeping current backend", "path", r.path, "err", err)
		return err
	}
	configReloads.With("ok").Inc()
	return nil
}

// apply pushes s into every layer that consumes it. The backend swap
// goes first — it is the only step that can fail, and a failed swap
// leaves everything (including the old backend) untouched. The
// remaining targets are individually atomic; a reload is not
// transactional across keys, but every key is a single independent
// knob.
func (r *reloader) apply(s config.Settings) error {
	if err := r.srv.Casper().ReloadBackend(s.Backend, s.BackendEpsilon, s.BackendMinK); err != nil {
		return fmt.Errorf("backend reload: %w", err)
	}
	// A burst of 0 is twice the rate; SetRateLimit raises it to 1.
	burst := s.RateLimitBurst
	if burst == 0 {
		burst = 2 * s.RateLimitRPS
	}
	r.srv.SetSlowQueryThreshold(time.Duration(s.SlowQuery))
	r.srv.SetRateLimit(s.RateLimitRPS, burst)
	r.srv.SetMaxConcurrent(s.MaxConcurrent)
	trace.SetSampleEvery(int64(s.TraceSample))
	privacyobs.Default.SetEpsilonBudget(s.EpsilonBudget)
	privacyobs.Default.SetSLOThresholds(s.SLOMinKSatisfied, s.SLOMaxLinkage)
	r.drain.Store(int64(s.DrainDeadline))
	gen := r.gen.Add(1)
	configGeneration.Set(gen)
	slog.Info("runtime config applied",
		"generation", gen,
		"slow_query", time.Duration(s.SlowQuery),
		"trace_sample", s.TraceSample,
		"rate_limit_rps", s.RateLimitRPS,
		"rate_limit_burst", burst,
		"max_concurrent", s.MaxConcurrent,
		"drain_deadline", time.Duration(s.DrainDeadline),
		"backend", s.Backend,
		"backend_epsilon", s.BackendEpsilon,
		"backend_min_k", s.BackendMinK,
		"epsilon_budget", s.EpsilonBudget,
		"slo_min_k_satisfied", s.SLOMinKSatisfied,
		"slo_max_linkage", s.SLOMaxLinkage)
	return nil
}

// drainDeadline is the currently configured graceful-shutdown budget.
func (r *reloader) drainDeadline() time.Duration {
	return time.Duration(r.drain.Load())
}

// buildTLSConfig assembles the RPC port's TLS setup from the -tls-*
// flags: certFile/keyFile are the server identity, and clientCAFile
// (optional) switches on mutual TLS — only clients presenting a
// certificate signed by that CA get past the handshake.
func buildTLSConfig(certFile, keyFile, clientCAFile string) (*tls.Config, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("load server certificate: %w", err)
	}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	if clientCAFile != "" {
		pem, err := os.ReadFile(clientCAFile)
		if err != nil {
			return nil, fmt.Errorf("load client CA: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("client CA %s holds no certificates", clientCAFile)
		}
		cfg.ClientCAs = pool
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return cfg, nil
}
