package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"casper"
	"casper/internal/core"
	"casper/internal/trace"
)

func TestDebugServerEndpoints(t *testing.T) {
	addr, stop, err := startDebugServer("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	// The binary links every instrumented package, whose instruments
	// register at init — the exposition is populated before any
	// traffic.
	text := string(body)
	for _, want := range []string{"# TYPE casper_", "casper_rpc_requests_total", "casper_wal_appends_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: %s %q", resp.Status, body)
	}

	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %s", resp.Status)
	}
}

func TestReadyzSplitFromHealthz(t *testing.T) {
	var notReady atomic.Bool
	ready := func() error {
		if notReady.Load() {
			return errors.New("wal directory not writable: probe failed")
		}
		return nil
	}
	addr, stop, err := startDebugServer("127.0.0.1:0", nil, ready, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr.String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/readyz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("ready /readyz: %d %q", code, body)
	}
	notReady.Store(true)
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /readyz: got %d, want 503", code)
	}
	if !strings.Contains(body, "wal directory not writable") {
		t.Fatalf("/readyz body %q missing reason", body)
	}
	// Liveness must be unaffected by readiness.
	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz while not ready: %d %q", code, body)
	}
}

func TestReadinessProbeWALDir(t *testing.T) {
	dir := t.TempDir()
	if err := probeDirWritable(dir); err != nil {
		t.Fatalf("writable dir rejected: %v", err)
	}
	if err := probeDirWritable(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestDebugTracesEndpoint(t *testing.T) {
	addr, stop, err := startDebugServer("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr.String()

	tr := trace.New("nn_public", "debug-endpoint-test")
	sp := tr.StartSpan("query")
	sp.End(trace.Int("candidates", 3))
	tr.Finish(5*time.Millisecond, "", "", true)
	trace.Publish(tr)

	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %s", resp.Status)
	}
	var list []map[string]any
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list not JSON: %v\n%s", err, body)
	}
	found := false
	for _, e := range list {
		if e["trace_id"] == "debug-endpoint-test" {
			found = true
			if _, hasSpans := e["spans"]; hasSpans {
				t.Error("list view should elide spans")
			}
		}
	}
	if !found {
		t.Fatalf("published trace missing from list: %s", body)
	}

	resp, err = http.Get(base + "/debug/traces?id=debug-endpoint-test")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?id=: %s %s", resp.Status, body)
	}
	var detail map[string]any
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatalf("detail not JSON: %v", err)
	}
	spans, ok := detail["spans"].([]any)
	if !ok || len(spans) != 1 {
		t.Fatalf("detail spans = %v, want 1 span", detail["spans"])
	}

	resp, err = http.Get(base + "/debug/traces?id=no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: got %s, want 404", resp.Status)
	}
}

// TestDebugStatsMatchesCoreStats is the one-document contract: after
// load through an in-process casperd, the "stats" object of
// /debug/stats is the core.Stats the instance reports in process, taken
// with no traffic in between.
func TestDebugStatsMatchesCoreStats(t *testing.T) {
	c := casper.MustNew(casper.DefaultConfig())
	defer c.Close()
	if err := c.LoadPublicObjects(casper.UniformTargets(c.Config().Universe, 200, 1)); err != nil {
		t.Fatal(err)
	}
	c.EnableContinuous(nil)
	srv := casper.NewProtocolServer(c)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, stop, err := startDebugServer("127.0.0.1:0", c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	ctx := context.Background()
	cl, err := casper.DialProtocolContext(ctx, bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(7))
	const users = 40
	for uid := int64(1); uid <= users; uid++ {
		if err := cl.Register(ctx, uid, rng.Float64()*40000, rng.Float64()*40000, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.WatchNearest(1, casper.PublicData); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		uid := 1 + int64(i%users)
		if err := cl.Update(ctx, uid, rng.Float64()*40000, rng.Float64()*40000); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.NearestPublic(ctx, uid); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.NearestBuddy(ctx, uid); err != nil {
			t.Fatal(err)
		}
	}

	want := c.Stats()
	resp, err := http.Get("http://" + addr.String() + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/stats: %s", resp.Status)
	}
	var doc core.DebugStats
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, doc.Stats) {
		t.Fatalf("in-process stats and /debug/stats differ:\nc.Stats %+v\ndebug   %+v", want, doc.Stats)
	}
	if want.Users != users || want.Continuous == nil || want.Continuous.Queries != 1 ||
		len(want.Privacy.Backends) == 0 || want.Privacy.Backends[0].Releases == 0 {
		t.Fatalf("stats miss the load: %+v", want)
	}
	found := false
	for _, f := range doc.Metrics {
		if f.Name == "casper_rpc_requests_total" {
			found = len(f.Series) > 0
		}
	}
	if !found {
		t.Fatal("/debug/stats metrics miss casper_rpc_requests_total")
	}
}
