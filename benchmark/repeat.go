package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"

	"casper/internal/stats"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json. The harness reads the metric lists and
// bounds from it and keeps no copy of its own.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return s, dec.Decode(&s)
}

// quartiles are Python's statistics.quantiles(v, n=4): the cut points the
// driver computes its spreads from.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	cut := func(i int) float64 {
		j, delta := i*(len(d)+1)/4, i*(len(d)+1)%4
		j = min(max(j, 1), len(d)-1)
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worseBy is by what share of a the value b is worse than a.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatAll runs every workload n times in child processes, seeds
// seed..seed+n-1, prints the spread of every end-to-end metric and
// returns 1 if a spread or the gap between the two halves of the runs
// exceeds the metric's bound (setup_s is held to the gap only).
func repeatAll(n int, seed int64, seconds float64, specPath, scratch, out, history, commit string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat needs at least 2 runs")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := 0
	medians := make(map[string]map[string]float64)
	fmt.Printf("# %d runs per workload, seeds %d..%d, %g s budget, nproc=%d gomaxprocs=%d %s\n",
		n, seed, seed+int64(n)-1, seconds, runtime.NumCPU(), pinnedProcs, runtime.Version())
	fmt.Printf("%-17s %-25s %12s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "halves", "bound")
	for _, wl := range spec.Workloads {
		vals := make(map[string][]float64)
		for i := 0; i < n; i++ {
			args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-scratch", scratch, "-out", out}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n%s", wl.Name, seed+int64(i), err, stdout)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: bad result line: %v\n", wl.Name, seed+int64(i), err)
				return 1
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		medians[wl.Name] = make(map[string]float64)
		for _, m := range spec.EndToEnd {
			v := vals[m.Name]
			if len(v) != n {
				fmt.Fprintf(os.Stderr, "benchmark: %s did not report %s on every run\n", wl.Name, m.Name)
				return 1
			}
			q1, q2, q3 := quartiles(v)
			var all, first, second stats.Summary
			for i, x := range v {
				all.Add(x)
				if i < n/2 {
					first.Add(x)
				} else {
					second.Add(x)
				}
			}
			a, b := first.Median(), second.Median()
			gap := max(worseBy(a, b, m.Better), worseBy(b, a, m.Better))
			iqr := (q3 - q1) / q2
			verdict := ""
			if gap > m.Bound || (m.Name != "setup_s" && iqr > m.Bound) {
				verdict = "  OVER BOUND"
				bad = 1
			}
			medians[wl.Name][m.Name] = q2
			fmt.Printf("%-17s %-25s %12.6g %12.6g %12.6g %8.4f %8.4f %8.4f %6.2f%s\n",
				wl.Name, m.Name, q2, q1, q3, iqr, (all.Max()-all.Min())/q2, gap, m.Bound, verdict)
		}
	}
	if history != "" {
		entry, _ := json.Marshal(map[string]any{
			"commit": commit, "nproc": runtime.NumCPU(), "gomaxprocs": pinnedProcs, "go": runtime.Version(),
			"first_seed": seed, "runs": n, "seconds": seconds, "medians": medians,
		})
		f, err := os.OpenFile(history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			_, err = f.Write(append(entry, '\n'))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return bad
}
