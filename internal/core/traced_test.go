package core

import (
	"math"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/trace"
)

func spanNames(tr *trace.Trace) map[string]bool {
	names := map[string]bool{}
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
	}
	return names
}

// TestTracedViewSharesState: a view from Traced is the same instance
// (a write through it is visible through c, and the reverse), and only
// the operations run through the view record spans into its trace.
func TestTracedViewSharesState(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	defer c.Close()
	populate(t, c, 40, 100, 31)

	tr := trace.New("test", "")
	v := c.Traced(tr)

	if err := v.RegisterUser(1000, geom.Pt(2000, 2000), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Users(); got != 41 {
		t.Errorf("users through c after a register through the view = %d, want 41", got)
	}
	if err := v.UpdateUser(1000, geom.Pt(100, 3900)); err != nil {
		t.Fatal(err)
	}
	if pos, err := c.userPos(1000); err != nil || pos != geom.Pt(100, 3900) {
		t.Errorf("position through c = %v, %v; want the view's update", pos, err)
	}
	recorded := len(tr.Spans())
	if err := c.UpdateUser(1000, geom.Pt(3900, 100)); err != nil {
		t.Fatal(err)
	}
	if pos, err := v.userPos(1000); err != nil || pos != geom.Pt(3900, 100) {
		t.Errorf("position through the view = %v, %v; want c's update", pos, err)
	}
	if n := len(tr.Spans()); n != recorded {
		t.Errorf("an update through c recorded %d spans into the view's trace", n-recorded)
	}
	ans, err := v.NearestPublic(1000)
	if err != nil {
		t.Fatal(err)
	}
	recorded = len(tr.Spans())
	plain, err := c.NearestPublic(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Spans()); n != recorded {
		t.Errorf("a query through c recorded %d spans into the view's trace", n-recorded)
	}
	if ans.Exact.ID != plain.Exact.ID || len(ans.Candidates) != len(plain.Candidates) {
		t.Errorf("view answered %d with %d candidates, c answered %d with %d",
			ans.Exact.ID, len(ans.Candidates), plain.Exact.ID, len(plain.Candidates))
	}

	names := spanNames(tr)
	for _, want := range []string{"cloak", "store", "query"} {
		if !names[want] {
			t.Errorf("view's trace lacks a %q span; has %v", want, names)
		}
	}
	if names["transmit"] {
		t.Errorf("view's trace holds a modelled transmit span; has %v", names)
	}
	if c.tr != nil {
		t.Error("the instance New returned carries a trace")
	}
}

// TestTracedNilCostsNothing: a memo-hit NearestPublic allocates the
// same through c.Traced(nil) as through c, so the per-request view the
// protocol builds stays off the heap.
func TestTracedNilCostsNothing(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	defer c.Close()
	populate(t, c, 40, 100, 32)
	const uid = anonymizer.UserID(7)
	if _, err := c.NearestPublic(uid); err != nil { // fills the memo
		t.Fatal(err)
	}
	plain := testing.AllocsPerRun(200, func() {
		if _, err := c.NearestPublic(uid); err != nil {
			t.Fatal(err)
		}
	})
	viewed := testing.AllocsPerRun(200, func() {
		if _, err := c.Traced(nil).NearestPublic(uid); err != nil {
			t.Fatal(err)
		}
	})
	if viewed != plain {
		t.Errorf("memo-hit NearestPublic: %v allocs/op through Traced(nil), %v through c", viewed, plain)
	}
}

// TestWatchRangeRejectsNonFiniteRadius: a standing range query with a
// NaN or +Inf radius used to panic the monitor while it indexed the
// query's interest region. It is refused, and the monitor keeps
// serving.
func TestWatchRangeRejectsNonFiniteRadius(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	defer c.Close()
	populate(t, c, 40, 100, 33)
	c.EnableContinuous(nil)
	for _, kind := range []privacyqp.DataKind{privacyqp.PublicData, privacyqp.PrivateData} {
		for _, r := range []float64{math.NaN(), math.Inf(1)} {
			if _, _, err := c.WatchRange(5, r, kind); err == nil {
				t.Errorf("WatchRange radius %v kind %v accepted", r, kind)
			}
		}
	}
	qid, cands, err := c.WatchRange(5, 800, privacyqp.PublicData)
	if err != nil || len(cands) == 0 {
		t.Fatalf("WatchRange after the refusals: %d candidates, %v", len(cands), err)
	}
	if err := c.UpdateUser(5, geom.Pt(3900, 3900)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Monitor().Candidates(qid); !ok {
		t.Error("watch vanished after an update")
	}
}
