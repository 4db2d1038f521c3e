package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"casper"
	"casper/internal/protocol"
)

// testScale is 1/100 of the measured scale: 200 users, 100 targets, 10
// standing queries, a few hundred traced ops.
var testScale = scale{users: 200, targets: 100, div: 100}

func testRun(t *testing.T, wl workload, trace bool) (result, string) {
	t.Helper()
	out := t.TempDir()
	res, notes, err := run(runConfig{wl: wl, seed: 7, seconds: 0.5, trace: trace,
		sc: testScale, scratch: t.TempDir(), out: out})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
			wl.name, trace, res.Correct, res.Attempted, res.Failed, notes)
	}
	return res, out
}

// TestMetricsMatchSpec runs every workload in both modes and requires
// exactly the workloads, metric names and units BENCHMARK.json lists.
func TestMetricsMatchSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	want := func(list []specMetric) map[string]string {
		m := make(map[string]string)
		for _, sm := range list {
			m[sm.Name] = sm.Unit
		}
		return m
	}
	for _, sw := range spec.Workloads {
		wl, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			res, out := testRun(t, wl, trace)
			list := spec.EndToEnd
			if trace {
				list = spec.PerLayer
			}
			exp := want(list)
			for name, m := range res.Metrics {
				if unit, ok := exp[name]; !ok {
					t.Errorf("%s trace=%v: emits %s, which BENCHMARK.json does not list", wl.name, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", wl.name, trace, name, m.Unit, unit)
				}
				delete(exp, name)
			}
			for name := range exp {
				t.Errorf("%s trace=%v: does not emit %s", wl.name, trace, name)
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, name, m.Value)
					}
				}
				continue
			}
			checkTraceFile(t, filepath.Join(out, "trace-"+wl.name+".json"), wl)
		}
	}
}

// checkTraceFile requires one root span per op and, on the workload each
// layer is said to dominate, at least one span of that layer.
func checkTraceFile(t *testing.T, path string, wl workload) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Ops   int    `json:"ops"`
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, s := range tf.Spans {
		seen[s.Name]++
		if s.End < s.Start {
			t.Fatalf("%s: span %d ends before it starts", path, s.ID)
		}
		if s.Name != "op" && s.Op >= 0 && s.Parent == 0 {
			t.Fatalf("%s: span %d (%s) of op %d has no parent", path, s.ID, s.Name, s.Op)
		}
	}
	if seen["op"] != tf.Ops {
		t.Errorf("%s: %d root spans for %d ops", path, seen["op"], tf.Ops)
	}
	need := map[string][]string{
		"read_heavy":       {"core.nearest_public", "server.nn_public_hit", "privacyqp.nn_public", "privacyqp.nn_private", "rtree.nearest_k", "rtree.search", "anonymizer.cloak"},
		"write_heavy":      {"core.update_user", "core.update_users", "anonymizer.update", "server.upsert_private", "server.upsert_batch", "rtree.clone", "rtree.insert_delete", "wal.append", "core.register_user"},
		"public_churn":     {"server.add_public", "server.nn_public_miss", "privacyqp.knn_public", "privacyqp.range_public"},
		"continuous_watch": {"continuous.apply", "continuous.watch_register", "core.update_user"},
	}
	for _, name := range need[wl.name] {
		if seen[name] == 0 {
			t.Errorf("%s: no %s span", path, name)
		}
	}
}

// TestOracleRejectsWrongAnswers feeds the oracle true answers, which it
// must accept, and truncated or substituted ones, which it must not.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	w := newWorld(3, testScale)
	log := newTargetLog(w, 1)
	v := view{log: log}
	pos := w.frames[0][0]
	byDist := append([]casper.PublicObject(nil), w.targets...)
	sort.Slice(byDist, func(i, j int) bool { return pos.Dist(byDist[i].Pos) < pos.Dist(byDist[j].Pos) })
	obj := func(t casper.PublicObject) protocol.Object {
		return protocol.Object{ID: t.ID, Rect: protocol.Rect{MinX: t.Pos.X, MinY: t.Pos.Y, MaxX: t.Pos.X, MaxY: t.Pos.Y}}
	}
	objs := func(ts []casper.PublicObject) []protocol.Object {
		out := make([]protocol.Object, len(ts))
		for i, t := range ts {
			out[i] = obj(t)
		}
		return out
	}

	top := objs(byDist[:knnK])
	if err := v.checkKNN(pos, top, knnK); err != nil {
		t.Errorf("true kNN answer rejected: %v", err)
	}
	if err := v.checkKNN(pos, top[:knnK-1], knnK); err == nil {
		t.Error("kNN answer with one neighbour missing accepted")
	}
	if err := v.checkKNN(pos, objs(byDist[1:knnK+1]), knnK); err == nil {
		t.Error("kNN answer that skips the nearest target accepted")
	}

	r := pos.Dist(byDist[9].Pos) + 1
	within := objs(byDist[:10])
	if err := v.checkRange(pos, within, r); err != nil {
		t.Errorf("true range answer rejected: %v", err)
	}
	if err := v.checkRange(pos, within[1:], r); err == nil {
		t.Error("range answer with one target missing accepted")
	}
	if err := v.checkRange(pos, objs(byDist[:11]), r); err == nil {
		t.Error("range answer with a target outside the radius accepted")
	}

	good := protocol.NNResult{Exact: top[0], Candidates: top}
	if err := v.checkNN(pos, good); err != nil {
		t.Errorf("true NN answer rejected: %v", err)
	}
	if err := v.checkNN(pos, protocol.NNResult{Exact: top[1], Candidates: top[1:]}); err == nil {
		t.Error("NN answer from a candidate list truncated of the true nearest accepted")
	}
	moved := top[0]
	moved.Rect.MinX++
	if err := v.checkNN(pos, protocol.NNResult{Exact: moved, Candidates: []protocol.Object{moved}}); err == nil {
		t.Error("NN answer at a wrong position accepted")
	}

	// A target added while the query was in flight may or may not be in
	// the answer; one acknowledged before it was sent must be.
	added := w.addedTarget(0)
	far := pos.Dist(added.Pos) + 1
	inFlight, acked := view{log: log, maybe: 1}, view{log: log, sure: 1, maybe: 1}
	var withAdded, without []protocol.Object
	for _, t := range w.targets {
		if pos.Dist(t.Pos) < far {
			without = append(without, obj(t))
		}
	}
	withAdded = append(append(withAdded, without...), obj(added))
	for _, ans := range [][]protocol.Object{withAdded, without} {
		if err := inFlight.checkRange(pos, ans, far); err != nil {
			t.Errorf("in-flight add: %v", err)
		}
	}
	if err := acked.checkRange(pos, without, far); err == nil {
		t.Error("range answer missing an acknowledged add accepted")
	}
	if err := v.checkRange(pos, withAdded, far); err == nil {
		t.Error("range answer holding a target that was never added accepted")
	}
}

func TestQuantiles(t *testing.T) {
	v := make([]int64, 101)
	for i := range v {
		v[i] = int64(i)
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got, want := quantile(v, q), q*100; got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4)
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
