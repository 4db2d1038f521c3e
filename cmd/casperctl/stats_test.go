package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"casper"
	"casper/internal/core"
	"casper/internal/metrics"
)

// debugServer serves /healthz and the /debug/stats document of c the
// way casperd's debug endpoint does.
func debugServer(t *testing.T, c *casper.Casper) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		doc := core.DebugStats{Stats: c.Stats(), Metrics: metrics.Default.Snapshot()}
		if err := json.NewEncoder(w).Encode(doc); err != nil {
			t.Errorf("encode /debug/stats: %v", err)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestDebugViewsBeforeTraffic renders every /debug/stats view of a
// fresh instance. Before any traffic every histogram is empty, so its
// quantiles are NaN inside the registry; the document must still
// encode, and each section must print.
func TestDebugViewsBeforeTraffic(t *testing.T) {
	c := casper.MustNew(casper.DefaultConfig())
	defer c.Close()
	url := debugServer(t, c)

	var out strings.Builder
	if err := statsFromDebug(&out, url, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"liveness (/healthz)", "readiness (/readyz)", "not supported by this casperd",
		"backend: adaptive\nusers: 0\npublic objects: 0\nqueries served: 0\n",
		"privacy: 0 releases, 0 k-violations (1.0000 k-satisfied)",
		"casper_query_cache_hit_rate",
		"casper_rpc_seconds{op=", "(no observations)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats view misses %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := statsFromDebug(&out, url, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "per-second rates over 1ms:") {
		t.Errorf("watch view misses its header:\n%s", out.String())
	}

	out.Reset()
	if err := privacyFromDebug(&out, url, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"no releases yet", "k-satisfied fraction: 1.0000", "anonymity-set entropy:",
		"linkage estimate: no repeat-release evidence yet", "epsilon: spent=0 total",
		"privacy SLO: OK",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("privacy view misses %q:\n%s", want, out.String())
		}
	}
}

// TestWireStatsView renders casperctl's stats view of a core.Stats with
// the continuous and privacy sections present.
func TestWireStatsView(t *testing.T) {
	c := casper.MustNew(casper.DefaultConfig())
	defer c.Close()
	c.EnableContinuous(nil)
	var out strings.Builder
	printStats(&out, c.Stats())
	for _, want := range []string{
		"backend: adaptive\n", "continuous queries: 0\n",
		"cloaks inside the last evaluated cloak: 0\n", "SLO ok\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats view misses %q:\n%s", want, out.String())
		}
	}
}
