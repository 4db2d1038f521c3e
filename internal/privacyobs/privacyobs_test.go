package privacyobs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

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
	o.Release(backend, 1, regionRelease(geom.R(0, 0, 10, 10), 5, 5), 0, nil)
	o.Release(backend, 2, regionRelease(geom.R(0, 0, 20, 20), 7, 5), 0, nil)
	o.Release(backend, 3, regionRelease(geom.R(0, 0, 10, 20), 3, 5), 0, nil) // violation

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
	o.Release("test-idle", 1, anonymizer.CloakedRegion{
		Region:    geom.R(0, 0, 1, 1),
		Mechanism: anonymizer.MechPerturbed,
		Epsilon:   0.1,
	}, 0, nil)
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
		o.Release("test-entropy", int64(i), regionRelease(geom.R(0, 0, 1, 1), k, 1), 0, nil)
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
		o.Release("test-wrap", int64(i), regionRelease(geom.R(0, 0, 1, 1), 4, 1), 0, nil)
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
		o.Release("test-linkage", 42, regionRelease(r, 5, 5), 0, nil)
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
		o.Release("test-noev", uid, regionRelease(geom.R(0, 0, 1, 1), 5, 5), 0, nil)
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
		o.Release("test-anchor", 7, regionRelease(geom.R(0, 0, 10, 10), 5, 5), 0, nil)
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
		o.Release("test-cap", int64(i*16), regionRelease(geom.R(0, 0, 1, 1), 5, 5), 0, nil)
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
		o.Release("test-walk", uid, regionRelease(geom.R(x, y, x+10, y+10), 5, 5), 0, nil)
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

// perturbedRelease builds a perturbed-mechanism release spending eps.
func perturbedRelease(eps float64) anonymizer.CloakedRegion {
	return anonymizer.CloakedRegion{
		Region:    geom.R(0, 0, 1, 1),
		Mechanism: anonymizer.MechPerturbed,
		Epsilon:   eps,
	}
}

func TestEpsilonBudget(t *testing.T) {
	o := New()
	// 0.125 is exact in binary, so 8 releases sum to exactly 1.0.
	o.SetEpsilonBudget(1.0)
	for i := 0; i < 8; i++ {
		if o.Release("test-budget", 1, perturbedRelease(0.125), 0, nil) {
			t.Fatalf("release %d of 8 refused below the ceiling", i+1)
		}
	}
	// The eighth release carried the spend to the ceiling, after which
	// further releases are refused.
	if got := o.Spent(1); got != 1.0 {
		t.Fatalf("spent = %g, want 1.0", got)
	}
	if !o.Release("test-budget", 1, perturbedRelease(0.125), 0, nil) {
		t.Error("release at the ceiling was not refused")
	}
	// Other users are unaffected.
	if o.Release("test-budget", 2, perturbedRelease(0.125), 0, nil) {
		t.Error("fresh user refused")
	}
	s := o.Snapshot()
	if s.Epsilon.Refusals != 1 {
		t.Errorf("refusals = %d, want 1", s.Epsilon.Refusals)
	}
	if math.Abs(s.Epsilon.SpentTotal-1.125) > 1e-12 {
		t.Errorf("spent total = %g, want 1.125", s.Epsilon.SpentTotal)
	}
	if math.Abs(s.Epsilon.MaxUser-1.0) > 1e-12 {
		t.Errorf("max user = %g, want 1.0", s.Epsilon.MaxUser)
	}
	if s.Epsilon.Users != 2 {
		t.Errorf("users = %d, want 2", s.Epsilon.Users)
	}
	// Raising the ceiling un-refuses; clearing it (0) too.
	o.SetEpsilonBudget(2.0)
	if o.Release("test-budget", 1, perturbedRelease(0.125), 0, nil) {
		t.Error("still refused after the ceiling was raised")
	}
	o.SetEpsilonBudget(0)
	if o.Release("test-budget", 1, perturbedRelease(0.125), 0, nil) || o.EpsilonBudget() != 0 {
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

// releaseState is everything a release can touch: the observer's
// per-backend, entropy, linkage and ε accounts, and the backend's metric
// series.
type releaseState struct {
	releases       int64 // observer's count for the backend
	entropy        EntropySnapshot
	linkage        LinkageSnapshot
	epsilon        EpsilonSnapshot
	releaseSeries  int64
	seconds, steps int64 // casper_cloak_seconds / _steps_up samples
	area, k        int64 // casper_privacy_release_area_m2 / achieved_k samples
	errors         int64 // casper_cloak_errors_total
	exhausted      int64 // casper_privacy_budget_exhausted_total
	linkResets     int64 // casper_privacy_linkage_resets_total
}

func stateOf(o *Observer, backend string) releaseState {
	inst := instrumentsFor(backend)
	s := o.Snapshot()
	st := releaseState{
		entropy:       s.Entropy,
		linkage:       s.Linkage,
		epsilon:       s.Epsilon,
		releaseSeries: inst.releases.Value(),
		seconds:       inst.cloakSeconds.Count(),
		steps:         inst.cloakSteps.Count(),
		area:          inst.area.Count(),
		k:             inst.kFound.Count(),
		errors:        cloakErrors.With(backend).Value(),
		exhausted:     budgetExhausted.Value(),
		linkResets:    linkResets.Value(),
	}
	for _, b := range s.Backends {
		if b.Backend == backend {
			st.releases = b.Releases
		}
	}
	return st
}

// TestReleaseRefusedRecordsOnlyRefusal: a release refused at the ε
// ceiling counts one refusal and nothing else — no spend, no linkage
// step, no backend release, no histogram sample.
func TestReleaseRefusedRecordsOnlyRefusal(t *testing.T) {
	const backend = "test-refused"
	o := New()
	o.SetEpsilonBudget(0.5)
	if o.Release(backend, 1, perturbedRelease(0.5), time.Millisecond, nil) {
		t.Fatal("first release refused")
	}
	before := stateOf(o, backend)
	if !o.Release(backend, 1, perturbedRelease(0.5), time.Millisecond, nil) {
		t.Fatal("release at the ceiling was not refused")
	}
	want := before
	want.epsilon.Refusals++
	want.exhausted++
	if got := stateOf(o, backend); got != want {
		t.Errorf("refused release left\n%+v, want\n%+v", got, want)
	}
}

// TestReleaseFailedCloakCountsOnlyError: a failed cloak counts in
// casper_cloak_errors_total and nothing else — not even a refusal for a
// user past the ceiling.
func TestReleaseFailedCloakCountsOnlyError(t *testing.T) {
	const backend = "test-failed"
	o := New()
	o.SetEpsilonBudget(0.5)
	o.Release(backend, 1, perturbedRelease(0.5), time.Millisecond, nil)
	before := stateOf(o, backend)
	if o.Release(backend, 1, anonymizer.CloakedRegion{}, time.Millisecond, anonymizer.ErrUnknownUser) {
		t.Error("failed cloak reported as refused")
	}
	want := before
	want.errors++
	if got := stateOf(o, backend); got != want {
		t.Errorf("failed cloak left\n%+v, want\n%+v", got, want)
	}
}

// TestReleaseRecordsEachQuantityOnce: a successful release records its
// spend, linkage step, k, area, latency and steps-up exactly once.
func TestReleaseRecordsEachQuantityOnce(t *testing.T) {
	const backend = "test-success"
	o := New()
	o.SetEpsilonBudget(10)
	first := regionRelease(geom.R(0, 0, 10, 10), 4, 4)
	first.Epsilon = 0.25
	o.Release(backend, 1, first, time.Millisecond, nil)
	before := stateOf(o, backend)
	inst := instrumentsFor(backend)
	sums := func() [4]float64 {
		return [4]float64{inst.cloakSeconds.Sum(), inst.cloakSteps.Sum(), inst.kFound.Sum(), inst.area.Sum()}
	}
	sumsBefore := sums()

	cr := regionRelease(geom.R(0, 0, 10, 5), 8, 5)
	cr.Epsilon, cr.StepsUp = 0.25, 3
	if o.Release(backend, 1, cr, 2*time.Millisecond, nil) {
		t.Fatal("release refused below the ceiling")
	}
	want := before
	want.releases++
	want.releaseSeries++
	want.seconds++
	want.steps++
	want.area++
	want.k++
	want.entropy = EntropySnapshot{MeanBits: 2.5, MinBits: 2, Window: 2}
	// One linkage step: the second region halves the first.
	want.linkage.Estimate, want.linkage.Evidence = 0.5, true
	want.epsilon.SpentTotal, want.epsilon.MaxUser = 0.5, 0.5
	if got := stateOf(o, backend); got != want {
		t.Errorf("release left\n%+v, want\n%+v", got, want)
	}
	if got, want := o.Spent(1), 0.5; got != want {
		t.Errorf("spent = %g, want %g", got, want)
	}
	got := sums()
	for i, w := range [4]float64{0.002, 3, 8, 50} {
		if d := got[i] - sumsBefore[i]; math.Abs(d-w) > 1e-12 {
			t.Errorf("sample %d added %g, want %g", i, d, w)
		}
	}
}

// TestSnapshotBeforeHistogramsObserve: Release counts a release under
// the lock and observes the shared histograms after it, so a snapshot
// can see a backend's first region release before any k or area
// sample. Its quantiles read 0 then, not NaN, and the snapshot still
// encodes as JSON for /debug/stats.
func TestSnapshotBeforeHistogramsObserve(t *testing.T) {
	const backend = "test-unobserved"
	o := New()
	o.mu.Lock()
	o.backends[backend] = &backendStats{inst: instrumentsFor(backend), releases: 1, regionRel: 1, kSum: 4, areaSum: 100}
	o.mu.Unlock()
	s := o.Snapshot()
	if len(s.Backends) != 1 {
		t.Fatalf("snapshot has %d backends, want 1", len(s.Backends))
	}
	b := s.Backends[0]
	for name, q := range map[string]float64{"k_p50": b.KP50, "k_p99": b.KP99, "area_p50": b.AreaP50, "area_p99": b.AreaP99} {
		if q != 0 {
			t.Errorf("%s = %v before any sample, want 0", name, q)
		}
	}
	if b.KMean != 4 || b.AreaMean != 100 {
		t.Errorf("means = %v, %v; want 4, 100 from the exact sums", b.KMean, b.AreaMean)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot does not encode: %v", err)
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
	o.Release("test-slo", 1, regionRelease(geom.R(0, 0, 10, 10), 5, 5), 0, nil)
	if !o.Snapshot().SLO.OK {
		t.Fatal("SLO violated with 100% k-satisfied")
	}

	// One violation in two releases drops the fraction to 0.5 < 0.9.
	o.Release("test-slo", 2, regionRelease(geom.R(0, 0, 10, 10), 2, 5), 0, nil)
	if o.Snapshot().SLO.OK {
		t.Fatal("SLO ok with k-satisfied fraction 0.5 < threshold 0.9")
	}

	// Linkage dimension: identical repeat releases give estimate 1 >
	// 0.5, a violation even when the k dimension is disabled.
	o2 := New()
	o2.SetSLOThresholds(0, 0.5)
	o2.Release("test-slo2", 1, regionRelease(geom.R(0, 0, 10, 10), 5, 5), 0, nil)
	if !o2.Snapshot().SLO.OK {
		t.Fatal("linkage SLO violated without repeat-release evidence")
	}
	o2.Release("test-slo2", 1, regionRelease(geom.R(0, 0, 10, 10), 5, 5), 0, nil)
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
					o.Release(backend, uid, anonymizer.CloakedRegion{
						Region:    geom.R(f, f, f+1, f+1),
						Mechanism: anonymizer.MechPerturbed,
						Epsilon:   0.01,
					}, 0, nil)
				} else {
					o.Release(backend, uid, regionRelease(geom.R(f, f, f+10, f+10), 5, 5), 0, nil)
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

// TestConcurrentReleasesKeepBudgetBound races many releases of one user
// against the ε ceiling. The check and the spend share one critical
// section, so exactly the four releases that bring the spend to the
// ceiling pass, however the goroutines interleave.
func TestConcurrentReleasesKeepBudgetBound(t *testing.T) {
	const eps, ceiling, workers = 0.25, 1.0, 16
	o := New()
	o.SetEpsilonBudget(ceiling)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				o.Release("test-conc-budget", 1, perturbedRelease(eps), 0, nil)
			}
		}()
	}
	wg.Wait()
	s := o.Snapshot()
	if got := o.Spent(1); got != ceiling {
		t.Errorf("spent = %g, want exactly the ceiling %g (4 releases of %g)", got, ceiling, eps)
	}
	if want := int64(workers*20 - 4); s.Epsilon.Refusals != want {
		t.Errorf("refusals = %d, want %d", s.Epsilon.Refusals, want)
	}
}
