package anonymizer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"casper/internal/geom"
)

// stripeTestUniverse is a 4096-unit square so the quadrant seams run
// through x=2048 and y=2048; users on the seams force cloaks that
// climb to level 1 and the root.
var stripeTestUniverse = geom.R(0, 0, 4096, 4096)

// TestBasicStripedMatchesCloakAt pins Cloak ≡ CloakAt: for users
// spread across all four quadrants and hugging the seams, Cloak(uid)
// must equal CloakAt(pos, profile). Both run Algorithm 1 over the same
// pyramid, so any divergence means the user table and the pyramid
// disagree about where the user is.
func TestBasicStripedMatchesCloakAt(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBasic(stripeTestUniverse, 7)
	type reg struct {
		uid  UserID
		pos  geom.Point
		prof Profile
	}
	var regs []reg
	uid := UserID(0)
	add := func(p geom.Point, prof Profile) {
		uid++
		if err := b.Register(uid, p, prof); err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg{uid, p, prof})
	}
	// Clusters on the seams force cloaks that climb to level 1 or the
	// root; scattered users are satisfied low in the pyramid.
	for i := 0; i < 64; i++ {
		k := 1 + rng.Intn(48)
		add(geom.Pt(2048+rng.Float64()*8-4, rng.Float64()*4096), Profile{K: k})
		add(geom.Pt(rng.Float64()*4096, 2048+rng.Float64()*8-4), Profile{K: k})
		add(geom.Pt(rng.Float64()*4096, rng.Float64()*4096), Profile{K: 1 + rng.Intn(8)})
	}
	for _, r := range regs {
		got, errGot := b.Cloak(r.uid)
		want, errWant := b.CloakAt(r.pos, r.prof)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("uid %d: Cloak err %v, CloakAt err %v", r.uid, errGot, errWant)
		}
		if errGot != nil {
			continue
		}
		if got != want {
			t.Fatalf("uid %d at %v (k=%d): Cloak %+v != CloakAt %+v", r.uid, r.pos, r.prof.K, got, want)
		}
		if got.KFound < r.prof.K {
			t.Fatalf("uid %d: cloak violates k: %d < %d", r.uid, got.KFound, r.prof.K)
		}
	}
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// stressAnonymizer runs a mixed concurrent workload against any
// Anonymizer: updaters crossing quadrant seams, strict-profile cloaks
// that climb to the top pyramid levels, register/deregister churn,
// and profile changes. Run under -race this is the main guard for the
// backends' locking; for the adaptive backend, check (CheckConsistency)
// also verifies that eager maintenance left the split/merge fixed
// point.
func stressAnonymizer(t *testing.T, an Anonymizer, check func() error) {
	t.Helper()
	const (
		baseUsers = 256
		churnBase = 10_000
		rounds    = 400
	)
	for i := 0; i < baseUsers; i++ {
		// Half the population sits within a leaf cell of a seam, so
		// updates constantly cross quadrants.
		var p geom.Point
		if i%2 == 0 {
			p = geom.Pt(2048+float64(i%64)-32, float64(i*16%4096))
		} else {
			p = geom.Pt(float64(i*16%4096), float64(i*16%4096))
		}
		if err := an.Register(UserID(i), p, Profile{K: 1 + i%16}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for w := 0; w < 4; w++ { // updaters hopping across the seams
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				uid := UserID(rng.Intn(baseUsers))
				var p geom.Point
				if i%2 == 0 {
					p = geom.Pt(2048+rng.Float64()*64-32, rng.Float64()*4096)
				} else {
					p = geom.Pt(rng.Float64()*4096, rng.Float64()*4096)
				}
				if err := an.Update(uid, p); err != nil {
					report(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ { // cloakers, including strict profiles that climb high
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				uid := UserID(rng.Intn(baseUsers))
				cr, err := an.Cloak(uid)
				if err != nil {
					report(err)
					return
				}
				if cr.Mechanism == MechRegion && cr.KFound < 1 {
					report(errEmptyCloak)
					return
				}
				// One-shot cloak with a profile strict enough to climb
				// to the top levels.
				if _, err := an.CloakAt(geom.Pt(rng.Float64()*4096, rng.Float64()*4096), Profile{K: baseUsers / 2}); err != nil {
					report(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // churners with disjoint uid ranges
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			base := UserID(churnBase * (w + 1))
			for i := 0; i < rounds; i++ {
				uid := base + UserID(i%32)
				p := geom.Pt(rng.Float64()*4096, rng.Float64()*4096)
				if err := an.Register(uid, p, Profile{K: 1 + rng.Intn(4)}); err == nil {
					if rng.Intn(2) == 0 {
						_ = an.SetProfile(uid, Profile{K: 1 + rng.Intn(8)})
					}
					if err := an.Deregister(uid); err != nil {
						report(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	if got := an.Users(); got != baseUsers {
		t.Fatalf("after churn: %d users, want %d", got, baseUsers)
	}
}

var errEmptyCloak = errUnexpected("cloak returned KFound < 1")

type errUnexpected string

func (e errUnexpected) Error() string { return string(e) }

// TestBasicStripedStress pins the -race safety of the basic backend's
// single lock.
func TestBasicStripedStress(t *testing.T) {
	b := NewBasic(stripeTestUniverse, 7)
	stressAnonymizer(t, b, b.CheckConsistency)
}

func TestAdaptiveBatchedStress(t *testing.T) {
	a := NewAdaptive(stripeTestUniverse, 7)
	stressAnonymizer(t, a, a.CheckConsistency)
}

// TestClusterStress runs the same workload against the cluster backend,
// whose uid index and leaf buckets share one lock: afterwards every
// user sits in exactly one bucket.
func TestClusterStress(t *testing.T) {
	c := NewCluster(stripeTestUniverse, 7)
	stressAnonymizer(t, c, func() error {
		c.mu.RLock()
		defer c.mu.RUnlock()
		n := 0
		for _, m := range c.cells {
			n += len(m)
		}
		if n != len(c.users) {
			return fmt.Errorf("leaf buckets hold %d users, index %d", n, len(c.users))
		}
		return nil
	})
}

// TestGeoIndStress runs the same workload against the geoind backend,
// whose user table is its only state: afterwards a ForEachUser walk
// sees exactly Users() users.
func TestGeoIndStress(t *testing.T) {
	g := NewGeoInd(stripeTestUniverse, 7, 1)
	stressAnonymizer(t, g, func() error {
		n := 0
		g.ForEachUser(func(UserID, geom.Point, Profile) bool {
			n++
			return true
		})
		if n != g.Users() {
			return fmt.Errorf("ForEachUser walked %d users, Users() = %d", n, g.Users())
		}
		return nil
	})
}

// registerCluster registers a tight cluster of 20 relaxed (K=1)
// users: the split criterion holds at deeper levels, so maintenance
// must subdivide.
func registerCluster(t *testing.T, a *Adaptive) {
	t.Helper()
	for i := 0; i < 20; i++ {
		p := geom.Pt(100+float64(i), 100+float64(i))
		if err := a.Register(UserID(i), p, Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdaptiveDeferredMaintenanceFlushes verifies that maintenance is
// done by the time a mutation returns: after a burst of registrations
// a structure read (MaintainedCells) observes the split structure,
// UpdateCost includes the restructuring work, and deregistering
// everyone merges back to the bare root.
func TestAdaptiveDeferredMaintenanceFlushes(t *testing.T) {
	a := NewAdaptive(stripeTestUniverse, 7)
	registerCluster(t, a)
	if cells := a.MaintainedCells(); cells <= 1 {
		t.Fatalf("MaintainedCells = %d after clustered registrations; splits not applied", cells)
	}
	cost := a.UpdateCost()
	if cost <= 20 { // bare counter increments alone, without split work
		t.Fatalf("UpdateCost = %d, expected restructuring cost on top of counter updates", cost)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Deregistering everyone must merge back to the bare root.
	for i := 0; i < 20; i++ {
		if err := a.Deregister(UserID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if cells := a.MaintainedCells(); cells != 1 {
		t.Fatalf("MaintainedCells = %d after full deregistration, want 1", cells)
	}
}

// TestAdaptiveResetUpdateCostLeavesNoBacklog pins that the split work
// registrations trigger is billed before they return: once the
// accounting is reset, nothing is left over for the next phase to pay.
func TestAdaptiveResetUpdateCostLeavesNoBacklog(t *testing.T) {
	a := NewAdaptive(stripeTestUniverse, 7)
	registerCluster(t, a)
	a.ResetUpdateCost()
	if cost := a.UpdateCost(); cost != 0 {
		t.Fatalf("UpdateCost = %d right after ResetUpdateCost, want 0", cost)
	}
}
