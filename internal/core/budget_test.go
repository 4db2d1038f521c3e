package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
	"casper/internal/privacyobs"
	"casper/internal/privacyqp"
	"casper/internal/server"
)

// budgetUIDs hands each budget test a block of user IDs no other test
// uses: privacyobs.Default keeps every user's spend for the life of the
// process, so a rerun (-count) must not inherit an earlier run's spend.
var budgetUIDs atomic.Int64

// newBudgetUIDs reserves n fresh user IDs, above those the other tests
// use, and returns the first.
func newBudgetUIDs(n int) anonymizer.UserID {
	return anonymizer.UserID(1<<40 + budgetUIDs.Add(int64(n)) - int64(n))
}

// setCeiling installs a per-user ε ceiling on the process-global
// observer for the rest of the test.
func setCeiling(t *testing.T, ceiling float64) {
	prev := privacyobs.Default.EpsilonBudget()
	privacyobs.Default.SetEpsilonBudget(ceiling)
	t.Cleanup(func() { privacyobs.Default.SetEpsilonBudget(prev) })
}

// geoindWithTargets builds a geoind deployment with m public targets.
func geoindWithTargets(t *testing.T, m int) *Casper {
	c := MustNew(smallConfig(GeoIndBackend))
	t.Cleanup(func() { c.Close() })
	rng := rand.New(rand.NewSource(5))
	u := c.Config().Universe
	objs := make([]server.PublicObject, m)
	for i := range objs {
		objs[i] = server.PublicObject{ID: int64(i), Pos: geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height()), Name: "poi"}
	}
	if err := c.LoadPublicObjects(objs); err != nil {
		t.Fatal(err)
	}
	return c
}

// geoindReleases is the number of geoind releases privacyobs.Default
// has observed.
func geoindReleases() int64 {
	for _, b := range privacyobs.Default.Snapshot().Backends {
		if b.Backend == GeoIndBackend {
			return b.Releases
		}
	}
	return 0
}

// TestWatchIsBudgetedRelease: a standing query is a release of the
// asker's location, so a watch registration passes the release gate.
// It is observed once when it succeeds and refused with
// ErrBudgetExhausted once the user's ε budget is spent.
func TestWatchIsBudgetedRelease(t *testing.T) {
	c := geoindWithTargets(t, 50)
	c.EnableContinuous(nil)
	uid := newBudgetUIDs(2)
	for i := range 2 {
		if err := c.RegisterUser(uid+anonymizer.UserID(i), geom.Pt(1000+float64(i)*500, 1000), anonymizer.Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
	}
	watches := map[string]func() error{
		"WatchNearest": func() error { _, _, err := c.WatchNearest(uid, privacyqp.PublicData); return err },
		"WatchRange":   func() error { _, _, err := c.WatchRange(uid, 300, privacyqp.PublicData); return err },
	}
	for name, watch := range watches {
		before := geoindReleases()
		if err := watch(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := geoindReleases() - before; got != 1 {
			t.Errorf("%s registration observed %d releases, want 1", name, got)
		}
	}

	setCeiling(t, privacyobs.Default.Spent(int64(uid)))
	for name, watch := range watches {
		before := geoindReleases()
		if err := watch(); !errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("%s with the budget spent: err = %v, want ErrBudgetExhausted", name, err)
		}
		if got := geoindReleases() - before; got != 0 {
			t.Errorf("refused %s observed %d releases, want 0", name, got)
		}
	}
}

// TestConcurrentBudgetCeiling races 64 NearestPublic calls per user
// against a ceiling of 1.5 ε_u set after each user's registration spent
// ε_u. The ceiling check and the spend are one critical section, so no
// user may end past the ceiling by more than one ε_u, however the
// calls interleave.
func TestConcurrentBudgetCeiling(t *testing.T) {
	const users, calls = 200, 64
	c := geoindWithTargets(t, 200)
	u := c.Config().Universe
	rng := rand.New(rand.NewSource(9))
	base := newBudgetUIDs(users)
	for i := range users {
		p := geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height())
		if err := c.RegisterUser(base+anonymizer.UserID(i), p, anonymizer.Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
	}
	epsU := privacyobs.Default.Spent(int64(base))
	if epsU <= 0 {
		t.Fatalf("registration spent ε = %g, want > 0", epsU)
	}
	ceiling := 1.5 * epsU
	setCeiling(t, ceiling)

	for i := range users {
		uid := base + anonymizer.UserID(i)
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, calls)
		for range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := c.NearestPublic(uid); err != nil && !errors.Is(err, ErrBudgetExhausted) {
					errs <- err
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("uid %d: %v", uid, err)
		}
	}
	over := 0
	for i := range users {
		if spent := privacyobs.Default.Spent(int64(base) + int64(i)); spent > ceiling+epsU*(1+1e-9) {
			if over == 0 {
				t.Errorf("user %d spent %.3g ε_u, past the ceiling of 1.5 ε_u by more than one ε_u", i, spent/epsU)
			}
			over++
		}
	}
	if over > 0 {
		t.Errorf("%d of %d users ended past ceiling + ε_u", over, users)
	}
}
