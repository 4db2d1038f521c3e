package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"casper/internal/trace"
)

// traceFromDebug talks to a casperd -debug-addr endpoint: without an
// id it lists the retained traces newest-first; with one it renders
// that trace's span waterfall.
func traceFromDebug(addr, id string) error {
	base := debugBase(addr) + "/debug/traces"
	cl := &http.Client{Timeout: 10 * time.Second}
	if id == "" {
		return listTraces(cl, base)
	}
	return showTrace(cl, base, id)
}

func listTraces(cl *http.Client, url string) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	var ts []trace.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		return fmt.Errorf("decode trace list: %w", err)
	}
	if len(ts) == 0 {
		fmt.Println("no retained traces (is -trace on and traffic flowing?)")
		return nil
	}
	fmt.Printf("%-18s %-14s %-12s %-7s %s\n", "TRACE ID", "OP", "TOTAL", "SPANS", "OUTCOME")
	for _, t := range ts {
		outcome := "ok"
		if t.Err != "" {
			outcome = "err"
			if t.Code != "" {
				outcome = t.Code
			}
		}
		if t.Slow {
			outcome += " SLOW"
		}
		fmt.Printf("%-18s %-14s %-12s %-7d %s\n",
			t.ID, t.Op, time.Duration(t.TotalNS), t.NumSpans, outcome)
	}
	fmt.Printf("(%d traces; casperctl trace <debug-addr> <trace-id> for the waterfall)\n", len(ts))
	return nil
}

func showTrace(cl *http.Client, base, id string) error {
	resp, err := cl.Get(base + "?id=" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("no retained trace with id %s (the ring holds only recent traces)", id)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", base, resp.Status)
	}
	var t trace.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&t); err != nil {
		return fmt.Errorf("decode trace: %w", err)
	}
	total := time.Duration(t.TotalNS)
	fmt.Printf("trace %s  op=%s  total=%v  started=%s\n",
		t.ID, t.Op, total, t.Started.Format(time.RFC3339Nano))
	if t.Err != "" {
		fmt.Printf("error: %s (code %q)\n", t.Err, t.Code)
	}
	if t.Slow {
		fmt.Println("flagged SLOW (over the server's -slow-query threshold)")
	}
	if t.Dropped > 0 {
		fmt.Printf("(%d spans dropped: trace span capacity exceeded)\n", t.Dropped)
	}
	// Waterfall: one bar per span, positioned by start offset.
	const width = 40
	for _, sp := range t.Spans {
		startCol, barLen := 0, 1
		if t.TotalNS > 0 {
			startCol = int(sp.StartNS * width / t.TotalNS)
			barLen = int(sp.DurNS * width / t.TotalNS)
		}
		if startCol > width-1 {
			startCol = width - 1
		}
		if barLen < 1 {
			barLen = 1
		}
		if startCol+barLen > width {
			barLen = width - startCol
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat("█", barLen) +
			strings.Repeat(" ", width-startCol-barLen)
		attrs := ""
		for _, a := range sp.Attrs {
			attrs += fmt.Sprintf(" %s=%v", a.K, a.V)
		}
		fmt.Printf("  %-18s |%s| %10v%s\n", sp.Name, bar, time.Duration(sp.DurNS), attrs)
	}
	return nil
}
