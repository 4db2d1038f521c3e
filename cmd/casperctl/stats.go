package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"casper/internal/core"
	"casper/internal/metrics"
	"casper/internal/privacyobs"
)

// debugBase turns a casperd -debug-addr into a base URL.
func debugBase(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// fetchDebugStats reads one /debug/stats document.
func fetchDebugStats(cl *http.Client, base string) (core.DebugStats, error) {
	var doc core.DebugStats
	url := base + "/debug/stats"
	resp, err := cl.Get(url)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET %s: %s (is this a casperd -debug-addr?)", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("decode %s: %w", url, err)
	}
	return doc, nil
}

// statsFromDebug renders /debug/stats from a casperd -debug-addr
// endpoint: liveness (/healthz) and readiness (/readyz) up front, the
// deployment statistics, then every metric family — counters and
// gauges as name/value rows, histograms as count, mean and p50/p95/p99.
// With watch > 0 it fetches twice, watch apart, and prints per-second
// rates for every counter instead.
func statsFromDebug(w io.Writer, addr string, watch time.Duration) error {
	base := debugBase(addr)
	cl := &http.Client{Timeout: 10 * time.Second}
	fmt.Fprintf(w, "%-58s %s\n", "liveness (/healthz)", probeHealth(cl, base+"/healthz"))
	fmt.Fprintf(w, "%-58s %s\n", "readiness (/readyz)", probeHealth(cl, base+"/readyz"))
	first, err := fetchDebugStats(cl, base)
	if err != nil {
		return err
	}
	if watch > 0 {
		t0 := time.Now()
		time.Sleep(watch)
		second, err := fetchDebugStats(cl, base)
		if err != nil {
			return err
		}
		printRates(w, first.Metrics, second.Metrics, watch, time.Since(t0).Seconds())
		return nil
	}
	printStats(w, first.Stats)
	for _, f := range first.Metrics {
		printFamily(w, f)
	}
	return nil
}

// privacyFromDebug renders the privacy observatory from /debug/stats:
// per-backend achieved-k and area distributions, the k-satisfied
// fraction, the windowed anonymity-set entropy, the online linkage
// estimate, the ε-budget ledger, and the SLO verdict. With watch > 0
// it refreshes every interval until interrupted.
func privacyFromDebug(w io.Writer, addr string, watch time.Duration) error {
	base := debugBase(addr)
	cl := &http.Client{Timeout: 10 * time.Second}
	for {
		doc, err := fetchDebugStats(cl, base)
		if err != nil {
			return err
		}
		printPrivacy(w, doc.Stats.Privacy)
		if watch <= 0 {
			return nil
		}
		time.Sleep(watch)
		fmt.Fprintln(w)
	}
}

// probeHealth summarizes one health endpoint's answer.
func probeHealth(cl *http.Client, url string) string {
	resp, err := cl.Get(url)
	if err != nil {
		return fmt.Sprintf("unreachable (%v)", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return "ok"
	case http.StatusNotFound:
		return "not supported by this casperd"
	default:
		return fmt.Sprintf("NOT READY (%s): %s", resp.Status, strings.TrimSpace(string(body)))
	}
}

// printStats renders the deployment statistics with the privacy
// headline: release and violation totals over all backends.
func printStats(w io.Writer, st core.Stats) {
	fmt.Fprintf(w, "backend: %s\nusers: %d\npublic objects: %d\nqueries served: %d\nanonymizer update cost: %d\n",
		st.Backend, st.Users, st.PublicObjs, st.Queries, st.UpdateCost)
	if c := st.Continuous; c != nil {
		ratio := 0.0
		if c.Updates > 0 {
			ratio = float64(c.Evaluations) / float64(c.Updates)
		}
		fmt.Fprintf(w, "continuous queries: %d\nmonitor updates: %d\nmonitor evaluations: %d (%.3f per update)\ncloaks inside the last evaluated cloak: %d\n",
			c.Queries, c.Updates, c.Evaluations, ratio, c.SafeRegionHits)
	}
	p := st.Privacy
	var releases, violations int64
	for _, b := range p.Backends {
		releases += b.Releases
		violations += b.KViolations
	}
	slo := "ok"
	if !p.SLO.OK {
		slo = "VIOLATED"
	}
	fmt.Fprintf(w, "privacy: %d releases, %d k-violations (%.4f k-satisfied), entropy %.2f bits mean / %.2f min, linkage %.3f, SLO %s\n",
		releases, violations, p.KSatisfiedFraction,
		p.Entropy.MeanBits, p.Entropy.MinBits, p.Linkage.Estimate, slo)
	if e := p.Epsilon; e.SpentTotal > 0 || e.Budget > 0 {
		fmt.Fprintf(w, "epsilon: %.4g spent, %.4g max user, budget %g, %d refused\n",
			e.SpentTotal, e.MaxUser, e.Budget, e.Refusals)
	}
}

func printPrivacy(w io.Writer, s privacyobs.Snapshot) {
	if len(s.Backends) == 0 {
		fmt.Fprintln(w, "no releases yet")
	}
	for _, b := range s.Backends {
		fmt.Fprintf(w, "backend %s: %d releases", b.Backend, b.Releases)
		if b.RegionReleases > 0 {
			fmt.Fprintf(w, ", achieved k mean=%.1f p50=%.0f p99=%.0f, %d k-violations",
				b.KMean, b.KP50, b.KP99, b.KViolations)
		}
		if b.Releases > 0 {
			fmt.Fprintf(w, ", area mean=%.3g p50=%.3g p99=%.3g", b.AreaMean, b.AreaP50, b.AreaP99)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "k-satisfied fraction: %.4f\n", s.KSatisfiedFraction)
	fmt.Fprintf(w, "anonymity-set entropy: mean=%.2f bits min=%.2f bits (window %d releases)\n",
		s.Entropy.MeanBits, s.Entropy.MinBits, s.Entropy.Window)
	if s.Linkage.Evidence {
		fmt.Fprintf(w, "linkage estimate: %.3f surviving fraction (%d users tracked, %d resets)\n",
			s.Linkage.Estimate, s.Linkage.TrackedUsers, s.Linkage.Resets)
	} else {
		fmt.Fprintf(w, "linkage estimate: no repeat-release evidence yet (%d users tracked)\n",
			s.Linkage.TrackedUsers)
	}
	budget := "unlimited"
	if s.Epsilon.Budget > 0 {
		budget = fmt.Sprintf("%g", s.Epsilon.Budget)
	}
	fmt.Fprintf(w, "epsilon: spent=%.4g total, max user=%.4g, budget=%s, %d users, %d refusals\n",
		s.Epsilon.SpentTotal, s.Epsilon.MaxUser, budget, s.Epsilon.Users, s.Epsilon.Refusals)
	verdict := "OK"
	if !s.SLO.OK {
		verdict = "VIOLATED"
	}
	detail := " (no thresholds configured)"
	if s.SLO.MinKSatisfied > 0 || s.SLO.MaxLinkage > 0 {
		detail = fmt.Sprintf(" (min k-satisfied %g, max linkage %g)", s.SLO.MinKSatisfied, s.SLO.MaxLinkage)
	}
	fmt.Fprintf(w, "privacy SLO: %s%s\n", verdict, detail)
}

// seriesName renders a series as name{labels}.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func printFamily(w io.Writer, f metrics.Family) {
	for _, s := range f.Series {
		label := seriesName(f.Name, s.Labels)
		switch {
		case f.Type != "histogram":
			fmt.Fprintf(w, "%-58s %s\n", label, strconv.FormatFloat(s.Value, 'g', -1, 64))
		case s.Count == 0:
			fmt.Fprintf(w, "%-58s (no observations)\n", label)
		default:
			fmt.Fprintf(w, "%-58s count=%d mean=%s p50=%s p95=%s p99=%s\n",
				label, s.Count, formatQty(f.Name, s.Sum/float64(s.Count)),
				formatQty(f.Name, s.P50), formatQty(f.Name, s.P95), formatQty(f.Name, s.P99))
		}
	}
}

// printRates prints the per-second rate of every counter (and
// histogram observation count) that moved between two snapshots,
// answering "what is this deployment doing right now" instead of
// "what has it done since boot".
func printRates(w io.Writer, first, second []metrics.Family, interval time.Duration, secs float64) {
	prev := make(map[string]float64)
	for _, f := range first {
		for _, s := range f.Series {
			prev[seriesName(f.Name, s.Labels)] = s.Value + float64(s.Count)
		}
	}
	fmt.Fprintf(w, "per-second rates over %s:\n", interval)
	moved := false
	for _, f := range second {
		if f.Type == "gauge" {
			continue
		}
		for _, s := range f.Series {
			name := f.Name
			if f.Type == "histogram" {
				name += "_count"
			}
			// A series absent from the first snapshot started at 0.
			delta := s.Value + float64(s.Count) - prev[seriesName(f.Name, s.Labels)]
			if delta <= 0 {
				continue
			}
			moved = true
			fmt.Fprintf(w, "%-58s %10.1f/s\n", seriesName(name, s.Labels), delta/secs)
		}
	}
	if !moved {
		fmt.Fprintln(w, "(no counter moved during the window)")
	}
}

// formatQty renders a value with units inferred from the metric name:
// seconds get human duration formatting, everything else a compact
// float.
func formatQty(name string, v float64) string {
	if strings.HasSuffix(name, "_seconds") {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
