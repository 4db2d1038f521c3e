package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// report is the BENCH_e2e.json payload: one open-loop run's capacity
// numbers plus (optionally) the single-connection pipelining ratio.
type report struct {
	Generated  string  `json:"generated"`
	Addr       string  `json:"addr,omitempty"`
	InProcess  bool    `json:"in_process"`
	Duration   float64 `json:"duration_seconds"`
	TargetRate float64 `json:"target_rate_rps"`
	Conns      int     `json:"connections"`
	InFlight   int     `json:"in_flight_per_conn"`
	Users      int     `json:"users"`
	Targets    int     `json:"targets"`
	Mix        string  `json:"mix"`
	Seed       int64   `json:"seed"`

	Scheduled    int64            `json:"scheduled"`
	Completed    int64            `json:"completed"`
	Errors       int64            `json:"errors"`
	Shed         int64            `json:"shed"`
	ShedServer   int64            `json:"shed_by_server"`
	ShedBudget   int64            `json:"shed_budget_exhausted"`
	AchievedRate float64          `json:"achieved_rate_rps"`
	ErrorRate    float64          `json:"error_rate"`
	ShedRate     float64          `json:"shed_rate"`
	P50Millis    float64          `json:"p50_ms"`
	P99Millis    float64          `json:"p99_ms"`
	P999Millis   float64          `json:"p999_ms"`
	SLOMillis    float64          `json:"slo_p99_ms"`
	SLOMet       bool             `json:"slo_met"`
	PerOp        map[string]int64 `json:"completed_per_op"`

	PipelineBench *pipelineBench    `json:"pipeline_benchmark,omitempty"`
	Shutdown      *shutdownReport   `json:"shutdown,omitempty"`
	Continuous    *continuousReport `json:"continuous,omitempty"`
	Privacy       *privacyReport    `json:"privacy,omitempty"`
}

// privacyReport is the privacy observatory's verdict on the run
// (in-process only): what the anonymizer actually released while the
// open-loop load was on. Releases count every successful cloak;
// achieved-k quantiles and k-violations cover region releases (the
// loadgen registers k=1 users, so violations should stay 0); ShedBudget
// counts requests refused with the budget_exhausted code, which the
// latency stats exclude the same way they exclude admission-control
// sheds.
type privacyReport struct {
	Backend            string  `json:"backend"`
	Releases           int64   `json:"releases"`
	KP50               float64 `json:"achieved_k_p50"`
	KP99               float64 `json:"achieved_k_p99"`
	KViolations        int64   `json:"k_violations"`
	KSatisfiedFraction float64 `json:"k_satisfied_fraction"`
	EntropyMeanBits    float64 `json:"entropy_mean_bits"`
	LinkageEstimate    float64 `json:"linkage_surviving_frac"`
	LinkageEvidence    bool    `json:"linkage_evidence"`
	EpsilonSpentTotal  float64 `json:"epsilon_spent_total"`
	ShedBudget         int64   `json:"shed_budget_exhausted"`
}

// continuousReport summarizes the -subscribe side-load: how many
// standing watches rode the run, how much churn the churner mixed in,
// and what the monitor's incremental maintenance cost. EvalsPerUpdate
// is the headline — candidate deltas and indexed matching keep it well
// below one full re-evaluation per location update; SafeRegionHits
// counts asker cloaks kept because they lie inside the last evaluated
// cloak.
type continuousReport struct {
	Subscriptions      int     `json:"subscriptions"`
	Churned            int64   `json:"churned"`
	Events             int64   `json:"events_delivered"`
	MonitorUpdates     int64   `json:"monitor_updates"`
	MonitorEvaluations int64   `json:"monitor_evaluations"`
	SafeRegionHits     int64   `json:"safe_region_hits"`
	EvalsPerUpdate     float64 `json:"evals_per_update"`
}

// shutdownReport grades a mid-run graceful drain (-shutdown-after).
// Clean means the drain is production-shaped: nothing failed before the
// drain began, and the server finished inside the deadline without
// force-closing connections. Errors after the drain instant are the
// expected fate of requests racing the shutdown and are reported but
// not graded.
type shutdownReport struct {
	AfterSeconds    float64 `json:"initiated_after_seconds"`
	DeadlineSeconds float64 `json:"drain_deadline_seconds"`
	DrainSeconds    float64 `json:"drain_seconds"`
	Forced          bool    `json:"forced"`
	ErrorsBefore    int64   `json:"errors_before_shutdown"`
	ErrorsAfter     int64   `json:"errors_after_shutdown"`
	Clean           bool    `json:"clean"`
}

// pipelineBench is the single-connection microbenchmark pair from
// `go test -bench Protocol`: one request in flight vs 64 pipelined on
// the same RPC over the same wire. SpeedupRPS is the acceptance
// headline (bar: >= 2).
type pipelineBench struct {
	SerializedNsPerOp float64 `json:"serialized_ns_per_op"`
	PipelinedNsPerOp  float64 `json:"pipelined_ns_per_op"`
	SpeedupRPS        float64 `json:"pipelined_over_serialized_rps"`
	Bar               float64 `json:"acceptance_bar"`
	BarMet            bool    `json:"acceptance_bar_met"`
}

// parsePipelineBench extracts ns/op for the two protocol benchmarks
// from `go test -bench` output. Benchmark lines look like:
//
//	BenchmarkProtocolPipelined-4   123456   6000 ns/op   ...
func parsePipelineBench(path string) (*pipelineBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var serialized, pipelined float64
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		var target *float64
		switch {
		case strings.HasPrefix(name, "BenchmarkProtocolSerialized"):
			target = &serialized
		case strings.HasPrefix(name, "BenchmarkProtocolPipelined"):
			target = &pipelined
		default:
			continue
		}
		// fields: name, iterations, ns/op value, "ns/op", ...
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q", path, line)
		}
		*target = ns
	}
	if serialized == 0 || pipelined == 0 {
		return nil, fmt.Errorf("%s: missing BenchmarkProtocolSerialized or BenchmarkProtocolPipelined", path)
	}
	pb := &pipelineBench{
		SerializedNsPerOp: serialized,
		PipelinedNsPerOp:  pipelined,
		SpeedupRPS:        serialized / pipelined,
		Bar:               2,
	}
	pb.BarMet = pb.SpeedupRPS >= pb.Bar
	return pb, nil
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (r *report) print(w io.Writer) {
	mode := "remote " + r.Addr
	if r.InProcess {
		mode = "in-process"
	}
	fmt.Fprintf(w, "casper-loadgen: %s, %d conns x %d in-flight\n",
		mode, r.Conns, r.InFlight)
	fmt.Fprintf(w, "  offered  %.0f req/s for %.1fs -> %d scheduled\n",
		r.TargetRate, r.Duration, r.Scheduled)
	fmt.Fprintf(w, "  achieved %.0f req/s (%d completed, %d errors, %d shed",
		r.AchievedRate, r.Completed, r.Errors, r.Shed)
	if r.ShedServer > 0 {
		fmt.Fprintf(w, ", %d shed by server", r.ShedServer)
	}
	if r.ShedBudget > 0 {
		fmt.Fprintf(w, ", %d refused on epsilon budget", r.ShedBudget)
	}
	fmt.Fprintf(w, ")\n")
	fmt.Fprintf(w, "  latency  p50 %.2fms  p99 %.2fms  p99.9 %.2fms  (SLO p99 <= %.0fms: %s)\n",
		r.P50Millis, r.P99Millis, r.P999Millis, r.SLOMillis, passFail(r.SLOMet))
	for _, op := range opNames {
		if n := r.PerOp[op]; n > 0 {
			fmt.Fprintf(w, "  %-7s %d\n", op, n)
		}
	}
	if pb := r.PipelineBench; pb != nil {
		fmt.Fprintf(w, "  pipeline bench: serialized %.0f ns/op, pipelined %.0f ns/op -> %.2fx RPS (bar %.0fx: %s)\n",
			pb.SerializedNsPerOp, pb.PipelinedNsPerOp, pb.SpeedupRPS, pb.Bar, passFail(pb.BarMet))
	}
	if c := r.Continuous; c != nil {
		fmt.Fprintf(w, "  continuous: %d watches (%d churned), %d events, %d monitor updates -> %.3f evals/update (%d safe-region hits)\n",
			c.Subscriptions, c.Churned, c.Events, c.MonitorUpdates, c.EvalsPerUpdate, c.SafeRegionHits)
	}
	if p := r.Privacy; p != nil {
		fmt.Fprintf(w, "  privacy: backend %s, %d releases, achieved k p50=%.0f p99=%.0f, %d k-violations (satisfied %.4f)",
			p.Backend, p.Releases, p.KP50, p.KP99, p.KViolations, p.KSatisfiedFraction)
		if p.ShedBudget > 0 || p.EpsilonSpentTotal > 0 {
			fmt.Fprintf(w, ", eps spent %.4g, %d budget-shed", p.EpsilonSpentTotal, p.ShedBudget)
		}
		fmt.Fprintf(w, "\n")
	}
	if s := r.Shutdown; s != nil {
		fmt.Fprintf(w, "  shutdown: drained in %.3fs of %.1fs budget (forced: %v, errors before/after: %d/%d) -> %s\n",
			s.DrainSeconds, s.DeadlineSeconds, s.Forced, s.ErrorsBefore, s.ErrorsAfter, passFail(s.Clean))
	}
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}
