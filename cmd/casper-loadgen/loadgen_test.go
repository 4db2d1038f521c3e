package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLoadgenSmoke runs the harness for one second against an
// in-process server and checks the report adds up.
func TestLoadgenSmoke(t *testing.T) {
	cfg := config{
		duration: 1 * time.Second,
		rate:     300,
		conns:    2,
		inflight: 16,
		users:    40,
		targets:  50,
		mix:      "update=60,nn=20,knn=10,range=10",
		slo:      time.Second,
		seed:     7,
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheduled == 0 {
		t.Fatal("no requests scheduled")
	}
	if rep.Completed+rep.Errors+rep.Shed != rep.Scheduled {
		t.Fatalf("accounting: %d completed + %d errors + %d shed != %d scheduled",
			rep.Completed, rep.Errors, rep.Shed, rep.Scheduled)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors", rep.Errors)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if rep.P99Millis < rep.P50Millis {
		t.Fatalf("p99 %.2fms < p50 %.2fms", rep.P99Millis, rep.P50Millis)
	}
	var total int64
	for _, n := range rep.PerOp {
		total += n
	}
	if total != rep.Completed {
		t.Fatalf("per-op counts sum to %d, want %d", total, rep.Completed)
	}
}

// TestLoadgenSubscribe mixes standing continuous watches (and their
// churn) into a short run and checks the continuous report section.
func TestLoadgenSubscribe(t *testing.T) {
	cfg := config{
		duration:  1 * time.Second,
		rate:      300,
		conns:     2,
		inflight:  16,
		users:     40,
		targets:   50,
		subscribe: 30,
		mix:       "update=60,nn=20,knn=10,range=10",
		slo:       time.Second,
		seed:      11,
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors", rep.Errors)
	}
	c := rep.Continuous
	if c == nil {
		t.Fatal("no continuous section in the report")
	}
	if c.Subscriptions != 30 {
		t.Fatalf("subscriptions = %d, want 30", c.Subscriptions)
	}
	if c.Churned == 0 {
		t.Fatal("churner never replaced a watch")
	}
	if c.MonitorUpdates == 0 {
		t.Fatal("monitor saw no updates despite update traffic")
	}
	// Remote mode cannot subscribe: the wire protocol has no
	// subscription op.
	cfg.addr = "127.0.0.1:1"
	if _, err := run(cfg); err == nil {
		t.Fatal("-subscribe with -addr should be rejected")
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("update=50,nn=50")
	if err != nil {
		t.Fatal(err)
	}
	if mix[opUpdate] != 0.5 || mix[opNN] != 1.0 {
		t.Fatalf("cumulative mix = %v", mix)
	}
	// knn and range carry zero weight: their cumulative value equals
	// the previous op's, so they are never drawn.
	if mix[opKNN] != 1.0 || mix[opRange] != 1.0 {
		t.Fatalf("zero-weight ops should not advance the CDF: %v", mix)
	}
	for _, bad := range []string{"", "update", "update=x", "walk=10", "update=0,nn=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) succeeded, want error", bad)
		}
	}
}

func TestParsePipelineBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	content := `goos: linux
BenchmarkProtocolSerialized-4   	   40000	     28000 ns/op	     944 B/op	      22 allocs/op
BenchmarkProtocolPipelined-4    	  200000	      6000 ns/op	     512 B/op	      11 allocs/op
PASS
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	pb, err := parsePipelineBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if pb.SerializedNsPerOp != 28000 || pb.PipelinedNsPerOp != 6000 {
		t.Fatalf("parsed %+v", pb)
	}
	if want := 28000.0 / 6000.0; pb.SpeedupRPS != want {
		t.Fatalf("speedup = %v, want %v", pb.SpeedupRPS, want)
	}
	if !pb.BarMet {
		t.Fatal("4.67x should meet the 2x bar")
	}
	if _, err := parsePipelineBench(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file should error")
	}
	short := filepath.Join(dir, "short.txt")
	os.WriteFile(short, []byte("BenchmarkProtocolSerialized-4 1 100 ns/op\n"), 0o644)
	if _, err := parsePipelineBench(short); err == nil {
		t.Fatal("missing pipelined line should error")
	}
}
