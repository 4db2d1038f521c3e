package privacyobs

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
	"casper/internal/privacy"
)

// regionRelease builds a region-mechanism release for tests.
func regionRelease(r geom.Rect, kFound, kReq int) anonymizer.CloakedRegion {
	return anonymizer.CloakedRegion{
		Region:     r,
		KFound:     kFound,
		KRequested: kReq,
		Mechanism:  anonymizer.MechRegion,
	}
}

// Tests use unique backend names so the shared per-backend histograms
// (process-global metrics registry) are not polluted across tests.

func TestBackendAccounting(t *testing.T) {
	o := New()
	const backend = "test-accounting"
	o.ObserveCloak(backend, 1, regionRelease(geom.R(0, 0, 10, 10), 5, 5))
	o.ObserveCloak(backend, 2, regionRelease(geom.R(0, 0, 20, 20), 7, 5))
	o.ObserveCloak(backend, 3, regionRelease(geom.R(0, 0, 10, 20), 3, 5)) // violation

	s := o.Snapshot()
	if len(s.Backends) != 1 {
		t.Fatalf("got %d backends, want 1", len(s.Backends))
	}
	b := s.Backends[0]
	if b.Backend != backend {
		t.Errorf("backend = %q, want %q", b.Backend, backend)
	}
	if b.Releases != 3 || b.RegionReleases != 3 {
		t.Errorf("releases = %d/%d, want 3/3", b.Releases, b.RegionReleases)
	}
	if b.KViolations != 1 {
		t.Errorf("k violations = %d, want 1", b.KViolations)
	}
	if want := float64(5+7+3) / 3; b.KMean != want {
		t.Errorf("k mean = %g, want %g", b.KMean, want)
	}
	if want := (100.0 + 400 + 200) / 3; b.AreaMean != want {
		t.Errorf("area mean = %g, want %g", b.AreaMean, want)
	}
	if b.KP50 <= 0 || b.KP99 < b.KP50 {
		t.Errorf("k quantiles p50=%g p99=%g not plausible", b.KP50, b.KP99)
	}
	if want := 2.0 / 3; s.KSatisfiedFraction != want {
		t.Errorf("k-satisfied fraction = %g, want %g", s.KSatisfiedFraction, want)
	}
}

func TestKSatisfiedFractionIdle(t *testing.T) {
	o := New()
	if got := o.Snapshot().KSatisfiedFraction; got != 1 {
		t.Errorf("idle k-satisfied fraction = %g, want 1", got)
	}
	// A perturbed release has no k guarantee and must not count.
	o.ObserveCloak("test-idle", 1, anonymizer.CloakedRegion{
		Region:    geom.R(0, 0, 1, 1),
		Mechanism: anonymizer.MechPerturbed,
		Epsilon:   0.1,
	})
	if got := o.Snapshot().KSatisfiedFraction; got != 1 {
		t.Errorf("after perturbed release, k-satisfied fraction = %g, want 1", got)
	}
	if s := o.Snapshot(); s.Entropy.Window != 0 {
		t.Errorf("perturbed release entered the entropy window (n=%d)", s.Entropy.Window)
	}
}

// TestEntropyWindow checks the online estimator against the offline
// AnalyzeEntropy math: each region release contributes log2(KFound)
// bits (0 when KFound <= 1).
func TestEntropyWindow(t *testing.T) {
	o := New()
	ks := []int{1, 2, 4, 8, 32}
	for i, k := range ks {
		o.ObserveCloak("test-entropy", int64(i), regionRelease(geom.R(0, 0, 1, 1), k, 1))
	}
	e := o.Snapshot().Entropy
	mean, min, n := e.MeanBits, e.MinBits, e.Window
	if n != len(ks) {
		t.Fatalf("window n = %d, want %d", n, len(ks))
	}
	wantMean := (0.0 + 1 + 2 + 3 + 5) / 5
	if math.Abs(mean-wantMean) > 1e-12 {
		t.Errorf("mean = %g, want %g", mean, wantMean)
	}
	if min != 0 {
		t.Errorf("min = %g, want 0 (the degenerate k=1 release)", min)
	}
}

func TestEntropyWindowWraps(t *testing.T) {
	o := New()
	for i := 0; i < ringSize+50; i++ {
		o.ObserveCloak("test-wrap", int64(i), regionRelease(geom.R(0, 0, 1, 1), 4, 1))
	}
	e := o.Snapshot().Entropy
	mean, min, n := e.MeanBits, e.MinBits, e.Window
	if n != ringSize {
		t.Errorf("window n = %d, want the ring capacity %d", n, ringSize)
	}
	if mean != 2 || min != 2 {
		t.Errorf("mean/min = %g/%g, want 2/2", mean, min)
	}
}

// TestLinkageMatchesOverlapAttack drives the same release sequence
// through the online estimator and the offline privacy.RunOverlapAttack
// and requires identical surviving fractions and reset counts. The
// sequence is shorter than linkWindow so no re-anchoring occurs.
func TestLinkageMatchesOverlapAttack(t *testing.T) {
	// A drifting cloak with one teleport (disjoint → reset).
	cloaks := []geom.Rect{
		geom.R(0, 0, 10, 10),
		geom.R(2, 1, 12, 11),
		geom.R(4, 3, 13, 12),
		geom.R(100, 100, 110, 110), // teleport: reset
		geom.R(105, 104, 115, 114),
		geom.R(107, 106, 118, 117),
	}
	o := New()
	for _, r := range cloaks {
		o.ObserveCloak("test-linkage", 42, regionRelease(r, 5, 5))
	}
	want := privacy.RunOverlapAttack(cloaks)

	l := o.Snapshot().Linkage
	frac, tracked, noEvidence, resets := l.Estimate, l.TrackedUsers, !l.Evidence, l.Resets
	if noEvidence {
		t.Fatal("estimator reports no evidence after repeat releases")
	}
	if tracked != 1 {
		t.Errorf("tracked = %d, want 1", tracked)
	}
	if int(resets) != want.Resets {
		t.Errorf("resets = %d, want %d", resets, want.Resets)
	}
	if math.Abs(frac-want.SurvivingFraction) > 1e-12 {
		t.Errorf("surviving fraction = %g, want offline result %g", frac, want.SurvivingFraction)
	}
}

func TestLinkageNoEvidence(t *testing.T) {
	o := New()
	// Distinct users, one release each: nothing linkable.
	for uid := int64(0); uid < 10; uid++ {
		o.ObserveCloak("test-noev", uid, regionRelease(geom.R(0, 0, 1, 1), 5, 5))
	}
	l := o.Snapshot().Linkage
	frac, tracked, noEvidence := l.Estimate, l.TrackedUsers, !l.Evidence
	if !noEvidence || frac != 0 {
		t.Errorf("single releases: frac=%g noEvidence=%v, want 0/true", frac, noEvidence)
	}
	if tracked != 10 {
		t.Errorf("tracked = %d, want 10", tracked)
	}
}

func TestLinkageReanchors(t *testing.T) {
	o := New()
	// linkWindow+10 identical releases: obs must re-anchor and stay
	// below the window, and the estimate stays 1 (identical regions).
	for i := 0; i < linkWindow+10; i++ {
		o.ObserveCloak("test-anchor", 7, regionRelease(geom.R(0, 0, 10, 10), 5, 5))
	}
	o.mu.Lock()
	obs := o.linkage[7].obs
	o.mu.Unlock()
	if obs >= linkWindow {
		t.Errorf("obs = %d, want < linkWindow (%d) after re-anchor", obs, linkWindow)
	}
	l := o.Snapshot().Linkage
	frac, noEvidence, resets := l.Estimate, !l.Evidence, l.Resets
	if noEvidence || math.Abs(frac-1) > 1e-12 {
		t.Errorf("identical releases: frac=%g noEvidence=%v, want 1/false", frac, noEvidence)
	}
	if resets != 0 {
		t.Errorf("resets = %d, want 0", resets)
	}
}

// TestLinkageTrackingCap: the cap is global, so users whose uids share
// a residue (here all ≡ 0 mod 16) are tracked up to maxTracked like
// any others, and only the user past the cap goes untracked.
func TestLinkageTrackingCap(t *testing.T) {
	o := New()
	for i := 0; i <= maxTracked; i++ {
		o.ObserveCloak("test-cap", int64(i*16), regionRelease(geom.R(0, 0, 1, 1), 5, 5))
	}
	s := o.Snapshot()
	if s.Linkage.TrackedUsers != maxTracked {
		t.Errorf("tracked = %d, want the cap %d", s.Linkage.TrackedUsers, maxTracked)
	}
	if s.Linkage.Untracked != 1 {
		t.Errorf("untracked = %d, want 1", s.Linkage.Untracked)
	}
}

// TestLinkageRunningSumMatchesWalk: the running linkage sum, moved on
// every release, must agree with a fresh walk over the tracked users
// through seeded random release sequences that overlap, reset and
// re-anchor.
func TestLinkageRunningSumMatchesWalk(t *testing.T) {
	o := New()
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 20000; i++ {
		uid := int64(rng.Intn(200))
		x, y := rng.Float64()*4, rng.Float64()*4
		if rng.Intn(20) == 0 {
			x += 100 // a jump: the next intersection is empty
		}
		o.ObserveCloak("test-walk", uid, regionRelease(geom.R(x, y, x+10, y+10), 5, 5))
		if i%100 != 0 {
			continue
		}
		o.mu.Lock()
		var sum float64
		var n int
		for _, e := range o.linkage {
			if f, ok := e.survival(); ok {
				sum += f
				n++
			}
		}
		o.mu.Unlock()
		want := 0.0
		if n > 0 {
			want = sum / float64(n)
		}
		l := o.Snapshot().Linkage
		if math.Abs(l.Estimate-want) > 1e-9 || l.Evidence != (n > 0) {
			t.Fatalf("after %d releases: estimate %g (evidence %v), walk gives %g over %d users",
				i, l.Estimate, l.Evidence, want, n)
		}
	}
	if s := o.Snapshot().Linkage; s.Resets == 0 {
		t.Fatal("sequence never reset a window")
	}
}

func TestEpsilonBudget(t *testing.T) {
	o := New()
	perturbed := func(eps float64) anonymizer.CloakedRegion {
		return anonymizer.CloakedRegion{
			Region:    geom.R(0, 0, 1, 1),
			Mechanism: anonymizer.MechPerturbed,
			Epsilon:   eps,
		}
	}
	if o.BudgetExhausted(1) {
		t.Fatal("exhausted with no ceiling configured")
	}
	// 0.125 is exact in binary, so 8 releases sum to exactly 1.0.
	o.SetEpsilonBudget(1.0)
	for i := 0; i < 7; i++ {
		if o.BudgetExhausted(1) {
			t.Fatalf("exhausted after %d of 8 releases", i)
		}
		o.ObserveCloak("test-budget", 1, perturbed(0.125))
	}
	if got := o.Spent(1); got != 0.875 {
		t.Fatalf("spent = %g, want 0.875", got)
	}
	// The eighth release carries the spend to the ceiling...
	o.ObserveCloak("test-budget", 1, perturbed(0.125))
	// ...after which further cloaks are refused.
	if !o.BudgetExhausted(1) {
		t.Error("not exhausted at the ceiling")
	}
	// Other users are unaffected.
	if o.BudgetExhausted(2) {
		t.Error("fresh user reported exhausted")
	}
	s := o.Snapshot()
	if s.Epsilon.Refusals != 1 {
		t.Errorf("refusals = %d, want 1", s.Epsilon.Refusals)
	}
	if math.Abs(s.Epsilon.SpentTotal-1.0) > 1e-12 {
		t.Errorf("spent total = %g, want 1.0", s.Epsilon.SpentTotal)
	}
	if math.Abs(s.Epsilon.MaxUser-1.0) > 1e-12 {
		t.Errorf("max user = %g, want 1.0", s.Epsilon.MaxUser)
	}
	if s.Epsilon.Users != 1 {
		t.Errorf("users = %d, want 1", s.Epsilon.Users)
	}
	// Raising the ceiling un-refuses; clearing it (0) too.
	o.SetEpsilonBudget(2.0)
	if o.BudgetExhausted(1) {
		t.Error("still exhausted after the ceiling was raised")
	}
	o.SetEpsilonBudget(0)
	if o.BudgetExhausted(1) || o.EpsilonBudget() != 0 {
		t.Error("ceiling clear did not take effect")
	}
	// Garbage values disable the ceiling rather than installing it.
	o.SetEpsilonBudget(math.Inf(1))
	if o.EpsilonBudget() != 0 {
		t.Error("infinite budget was not rejected")
	}
	o.SetEpsilonBudget(math.NaN())
	if o.EpsilonBudget() != 0 {
		t.Error("NaN budget was not rejected")
	}
}

func TestSLOTransitions(t *testing.T) {
	o := New()
	// Unconfigured thresholds: always ok.
	if !o.Snapshot().SLO.OK {
		t.Fatal("SLO violated with no thresholds configured")
	}
	o.SetSLOThresholds(0.9, 0.5)

	// All releases satisfied: ok.
	o.ObserveCloak("test-slo", 1, regionRelease(geom.R(0, 0, 10, 10), 5, 5))
	if !o.Snapshot().SLO.OK {
		t.Fatal("SLO violated with 100% k-satisfied")
	}

	// One violation in two releases drops the fraction to 0.5 < 0.9.
	o.ObserveCloak("test-slo", 2, regionRelease(geom.R(0, 0, 10, 10), 2, 5))
	if o.Snapshot().SLO.OK {
		t.Fatal("SLO ok with k-satisfied fraction 0.5 < threshold 0.9")
	}

	// Linkage dimension: identical repeat releases give estimate 1 >
	// 0.5, a violation even when the k dimension is disabled.
	o2 := New()
	o2.SetSLOThresholds(0, 0.5)
	o2.ObserveCloak("test-slo2", 1, regionRelease(geom.R(0, 0, 10, 10), 5, 5))
	if !o2.Snapshot().SLO.OK {
		t.Fatal("linkage SLO violated without repeat-release evidence")
	}
	o2.ObserveCloak("test-slo2", 1, regionRelease(geom.R(0, 0, 10, 10), 5, 5))
	if o2.Snapshot().SLO.OK {
		t.Fatal("linkage SLO ok with surviving fraction 1 > threshold 0.5")
	}

	// Out-of-range thresholds disable the dimension.
	o2.SetSLOThresholds(1.5, -0.1)
	if !o2.Snapshot().SLO.OK {
		t.Error("out-of-range thresholds were not rejected")
	}
}

// TestConcurrentObservers hammers one observer from many goroutines
// while snapshots run, for the race detector's benefit.
func TestConcurrentObservers(t *testing.T) {
	o := New()
	o.SetEpsilonBudget(1000)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			backend := fmt.Sprintf("test-conc-%d", w%2)
			for i := 0; i < 500; i++ {
				uid := int64(w*1000 + i%50)
				f := float64(i % 30)
				if i%3 == 0 {
					o.BudgetExhausted(uid)
					o.ObserveCloak(backend, uid, anonymizer.CloakedRegion{
						Region:    geom.R(f, f, f+1, f+1),
						Mechanism: anonymizer.MechPerturbed,
						Epsilon:   0.01,
					})
				} else {
					o.ObserveCloak(backend, uid, regionRelease(geom.R(f, f, f+10, f+10), 5, 5))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			o.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := o.Snapshot()
	var total int64
	for _, b := range s.Backends {
		total += b.Releases
	}
	if want := int64(workers * 500); total != want {
		t.Errorf("releases = %d, want %d", total, want)
	}
}
