package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"casper"
	"casper/internal/core"
	"casper/internal/metrics"
	"casper/internal/trace"
)

// startDebugServer serves the observability endpoints on addr:
//
//	/metrics       Prometheus text exposition of every framework metric
//	/healthz       liveness probe: always "ok" while the process serves
//	/readyz        readiness probe: 503 with a reason when the process
//	               should be taken out of rotation (see ready below)
//	/debug/traces  recent request traces (JSON list; ?id= for detail)
//	/debug/stats   the operator snapshot as JSON: {"stats": c.Stats(),
//	               "metrics": every metric family as typed values}; the
//	               one transport of core.Stats, privacy observatory
//	               included
//	/debug/pprof/  the standard Go profiling handlers
//	/-/reload      POST: re-read and apply the -config file (the
//	               API-driven twin of SIGHUP); 500 with the parse or
//	               validation error when the file is rejected
//
// c is the instance /debug/stats reports on. ready, when non-nil, is
// consulted by /readyz: a non-nil error means not-ready and its text
// becomes the response body. /healthz stays 200 regardless — liveness
// and readiness are split so an unwritable WAL directory drains
// traffic without triggering a restart loop. reload, when non-nil,
// backs /-/reload; with no -config file the endpoint answers 404.
//
// The debug listener is separate from the protocol port on purpose:
// it can be bound to localhost or a management network while the
// protocol endpoint faces clients. Returns the bound address and a
// shutdown func.
func startDebugServer(addr string, c *casper.Casper, ready func() error, reload func() error) (net.Addr, func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.Default.WritePrometheus(w); err != nil {
			slog.Error("debug: write metrics", "err", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil {
			if err := ready(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, err.Error()+"\n")
				return
			}
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/-/reload", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if reload == nil {
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, "no -config file to reload\n")
			return
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			w.WriteHeader(http.StatusMethodNotAllowed)
			io.WriteString(w, "POST required\n")
			return
		}
		if err := reload(); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, err.Error()+"\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/traces", serveTraces)
	mux.HandleFunc("/debug/stats", serveStats(c))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			slog.Error("debug server", "err", err)
		}
	}()
	return ln.Addr(), func() { srv.Close() }, nil
}

// serveTraces exposes the global trace ring. Without parameters it
// returns the retained traces newest-first, spans elided (cheap to
// poll); with ?id=<trace_id> it returns that one trace with its full
// span list, or 404.
func serveTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if id := r.URL.Query().Get("id"); id != "" {
		t := trace.Default.Find(id)
		if t == nil {
			w.WriteHeader(http.StatusNotFound)
			enc.Encode(map[string]string{"error": "no retained trace with id " + id})
			return
		}
		enc.Encode(t.Export(true))
		return
	}
	ts := trace.Default.Snapshot()
	out := make([]trace.TraceJSON, len(ts))
	for i, t := range ts {
		out[i] = t.Export(false)
	}
	enc.Encode(out)
}

// serveStats exposes the operator snapshot. Taking it also evaluates
// the privacy SLO, so watching this endpoint (casperctl privacy -watch)
// keeps the verdict and its slog transitions current even when nothing
// scrapes /metrics. A document that does not encode is a 500, not a
// truncated body.
func serveStats(c *casper.Casper) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, err := json.MarshalIndent(core.DebugStats{Stats: c.Stats(), Metrics: metrics.Default.Snapshot()}, "", "  ")
		if err != nil {
			http.Error(w, "encode /debug/stats: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(append(b, '\n'))
	}
}
