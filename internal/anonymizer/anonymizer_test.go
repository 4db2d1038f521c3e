package anonymizer

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"casper/internal/geom"
	"casper/internal/pyramid"
)

var universe = geom.R(0, 0, 1024, 1024)

func TestProfileValidate(t *testing.T) {
	if err := (Profile{K: 1, AMin: 0}).Validate(); err != nil {
		t.Fatalf("minimal profile invalid: %v", err)
	}
	if err := (Profile{K: 0, AMin: 0}).Validate(); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := (Profile{K: 1, AMin: -1}).Validate(); err == nil {
		t.Fatal("negative Amin accepted")
	}
}

// both runs a subtest against each implementation.
func both(t *testing.T, levels int, fn func(t *testing.T, a Anonymizer)) {
	t.Helper()
	t.Run("basic", func(t *testing.T) { fn(t, NewBasic(universe, levels)) })
	t.Run("adaptive", func(t *testing.T) { fn(t, NewAdaptive(universe, levels)) })
}

// everyBackend runs a subtest against each registered backend.
func everyBackend(t *testing.T, levels int, fn func(t *testing.T, a Anonymizer)) {
	t.Helper()
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) {
			a, err := New(name, BackendConfig{Universe: universe, Levels: levels, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			fn(t, a)
		})
	}
}

// profiler is the profile read every backend offers next to the
// Anonymizer interface.
type profiler interface {
	Profile(UserID) (Profile, error)
}

func TestRegisterErrors(t *testing.T) {
	everyBackend(t, 5, func(t *testing.T, a Anonymizer) {
		r := a.(profiler)
		prof, pos := Profile{K: 1, AMin: 4}, geom.Pt(10, 10)
		if err := a.Register(1, pos, prof); err != nil {
			t.Fatal(err)
		}
		if err := a.Register(1, geom.Pt(20, 20), Profile{K: 3}); !errors.Is(err, ErrDuplicateUser) {
			t.Fatalf("duplicate register: %v", err)
		}
		if err := a.Register(2, geom.Pt(10, 10), Profile{K: 0}); err == nil {
			t.Fatal("invalid profile accepted")
		}
		if err := a.SetProfile(1, Profile{K: 1, AMin: -1}); err == nil {
			t.Fatal("invalid profile change accepted")
		}
		if a.Users() != 1 {
			t.Fatalf("Users = %d", a.Users())
		}
		// Refusals leave the stored user untouched and store nobody.
		if got, err := r.Profile(1); err != nil || got != prof {
			t.Fatalf("Profile(1) = %+v, %v; want %+v", got, err, prof)
		}
		if got, err := a.Position(1); err != nil || got != pos {
			t.Fatalf("Position(1) = %v, %v; want %v", got, err, pos)
		}
		if _, err := r.Profile(2); !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("refused registration stored uid 2: %v", err)
		}
	})
}

func TestUnknownUserErrors(t *testing.T) {
	everyBackend(t, 5, func(t *testing.T, a Anonymizer) {
		if err := a.Update(9, geom.Pt(1, 1)); !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("Update: %v", err)
		}
		if err := a.Deregister(9); !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("Deregister: %v", err)
		}
		if err := a.SetProfile(9, Profile{K: 1}); !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("SetProfile: %v", err)
		}
		if _, err := a.Cloak(9); !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("Cloak: %v", err)
		}
		if _, err := a.(profiler).Profile(9); !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("Profile: %v", err)
		}
		if _, err := a.Position(9); !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("Position: %v", err)
		}
	})
}

func TestCloakSingleRelaxedUserReturnsLeaf(t *testing.T) {
	both(t, 5, func(t *testing.T, a Anonymizer) {
		p := geom.Pt(100, 100)
		if err := a.Register(1, p, Profile{K: 1, AMin: 0}); err != nil {
			t.Fatal(err)
		}
		cr, err := a.Cloak(1)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Level != a.Grid().LowestLevel() {
			t.Fatalf("level = %d, want lowest %d", cr.Level, a.Grid().LowestLevel())
		}
		if !cr.Region.Contains(p) {
			t.Fatalf("region %v misses user at %v", cr.Region, p)
		}
		if cr.KFound != 1 {
			t.Fatalf("KFound = %d", cr.KFound)
		}
		want := a.Grid().CellRect(a.Grid().LeafAt(p))
		if cr.Region != want {
			t.Fatalf("region = %v, want leaf cell %v", cr.Region, want)
		}
	})
}

func TestCloakUnsatisfiableK(t *testing.T) {
	both(t, 5, func(t *testing.T, a Anonymizer) {
		if err := a.Register(1, geom.Pt(1, 1), Profile{K: 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Cloak(1); !errors.Is(err, ErrUnsatisfiable) {
			t.Fatalf("Cloak = %v, want ErrUnsatisfiable", err)
		}
	})
}

func TestCloakUnsatisfiableAmin(t *testing.T) {
	both(t, 5, func(t *testing.T, a Anonymizer) {
		if err := a.Register(1, geom.Pt(1, 1), Profile{K: 1, AMin: universe.Area() * 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Cloak(1); !errors.Is(err, ErrUnsatisfiable) {
			t.Fatalf("Cloak = %v, want ErrUnsatisfiable", err)
		}
	})
}

func TestCloakClimbsForK(t *testing.T) {
	both(t, 5, func(t *testing.T, a Anonymizer) {
		// Two users in far-apart corners: k=2 forces the cloak to climb
		// to the root (no shared sub-cell, and sibling neighbors of the
		// level-1 quadrants do satisfy N>=2... verify whichever region
		// comes back covers both requirements).
		if err := a.Register(1, geom.Pt(10, 10), Profile{K: 2}); err != nil {
			t.Fatal(err)
		}
		if err := a.Register(2, geom.Pt(1000, 1000), Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
		cr, err := a.Cloak(1)
		if err != nil {
			t.Fatal(err)
		}
		if cr.KFound < 2 {
			t.Fatalf("KFound = %d, want >= 2", cr.KFound)
		}
		if !cr.Region.Contains(geom.Pt(10, 10)) {
			t.Fatal("region misses the querying user")
		}
	})
}

func TestCloakNeighborCombination(t *testing.T) {
	// Universe 1024, 3 levels: leaf cells 256x256 at level 2.
	// Users: 1 in cell (0,0), 3 in its horizontal neighbor (1,0),
	// 10 in its vertical neighbor (0,1).
	// Cloaking user 1 with k=4: cell alone has 1; NH = 1+3 = 4 >= 4,
	// NV = 1+10 = 11 >= 4; NH <= NV so the horizontal union wins, and
	// KFound must be 4 (closer to k).
	both(t, 3, func(t *testing.T, a Anonymizer) {
		if err := a.Register(1, geom.Pt(10, 10), Profile{K: 4}); err != nil {
			t.Fatal(err)
		}
		uid := UserID(2)
		for i := 0; i < 3; i++ {
			if err := a.Register(uid, geom.Pt(300+float64(i), 10), Profile{K: 1}); err != nil {
				t.Fatal(err)
			}
			uid++
		}
		for i := 0; i < 10; i++ {
			if err := a.Register(uid, geom.Pt(10+float64(i), 300), Profile{K: 1}); err != nil {
				t.Fatal(err)
			}
			uid++
		}
		cr, err := a.Cloak(1)
		if err != nil {
			t.Fatal(err)
		}
		if cr.KFound != 4 {
			t.Fatalf("KFound = %d, want 4 (horizontal union closer to k)", cr.KFound)
		}
		want := geom.R(0, 0, 512, 256) // cells (0,0)+(1,0) at level 2
		if cr.Region != want {
			t.Fatalf("region = %v, want %v", cr.Region, want)
		}
	})
}

func TestCloakNeighborVerticalWhenHorizontalInsufficient(t *testing.T) {
	// 1 user in cell (0,0), 0 in horizontal neighbor, 5 in vertical
	// neighbor. k=3: NH=1 < 3, NV=6 >= 3 -> vertical union.
	both(t, 3, func(t *testing.T, a Anonymizer) {
		if err := a.Register(1, geom.Pt(10, 10), Profile{K: 3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := a.Register(UserID(10+i), geom.Pt(10+float64(i), 300), Profile{K: 1}); err != nil {
				t.Fatal(err)
			}
		}
		cr, err := a.Cloak(1)
		if err != nil {
			t.Fatal(err)
		}
		want := geom.R(0, 0, 256, 512) // cells (0,0)+(0,1)
		if cr.Region != want {
			t.Fatalf("region = %v, want %v", cr.Region, want)
		}
		if cr.KFound != 6 {
			t.Fatalf("KFound = %d", cr.KFound)
		}
	})
}

func TestCloakNeighborRejectedByAmin(t *testing.T) {
	// Enough users in the neighbor pair, but 2*cellArea < Amin forces
	// a climb to the parent level.
	both(t, 3, func(t *testing.T, a Anonymizer) {
		leafArea := universe.Area() / 16 // level 2 cell area
		if err := a.Register(1, geom.Pt(10, 10), Profile{K: 2, AMin: leafArea * 3}); err != nil {
			t.Fatal(err)
		}
		if err := a.Register(2, geom.Pt(300, 10), Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
		cr, err := a.Cloak(1)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Region.Area() < leafArea*3 {
			t.Fatalf("area %v below Amin %v", cr.Region.Area(), leafArea*3)
		}
		if cr.Level >= 2 {
			t.Fatalf("level = %d, expected a climb above the leaf level", cr.Level)
		}
	})
}

func TestCloakAminAlone(t *testing.T) {
	// k=1 but Amin of one quadrant: the cloak must come back at level
	// <= 1 even though the leaf satisfies k.
	both(t, 4, func(t *testing.T, a Anonymizer) {
		quadArea := universe.Area() / 4
		if err := a.Register(1, geom.Pt(700, 700), Profile{K: 1, AMin: quadArea}); err != nil {
			t.Fatal(err)
		}
		cr, err := a.Cloak(1)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Region.Area() < quadArea {
			t.Fatalf("area %v < required %v", cr.Region.Area(), quadArea)
		}
		if !cr.Region.Contains(geom.Pt(700, 700)) {
			t.Fatal("region misses user")
		}
	})
}

func TestCloakAtUnregisteredPoint(t *testing.T) {
	both(t, 5, func(t *testing.T, a Anonymizer) {
		for i := 0; i < 20; i++ {
			if err := a.Register(UserID(i), geom.Pt(float64(i)*3, float64(i)*2), Profile{K: 1}); err != nil {
				t.Fatal(err)
			}
		}
		cr, err := a.CloakAt(geom.Pt(30, 20), Profile{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if cr.KFound < 5 {
			t.Fatalf("KFound = %d", cr.KFound)
		}
		if !cr.Region.Contains(geom.Pt(30, 20)) {
			t.Fatal("region misses query point")
		}
	})
}

func TestSetProfileChangesCloak(t *testing.T) {
	both(t, 6, func(t *testing.T, a Anonymizer) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			p := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
			if err := a.Register(UserID(i), p, Profile{K: 1}); err != nil {
				t.Fatal(err)
			}
		}
		relaxed, err := a.Cloak(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetProfile(0, Profile{K: 100}); err != nil {
			t.Fatal(err)
		}
		strict, err := a.Cloak(0)
		if err != nil {
			t.Fatal(err)
		}
		if strict.Region.Area() <= relaxed.Region.Area() {
			t.Fatalf("stricter profile should enlarge the region: %v -> %v",
				relaxed.Region.Area(), strict.Region.Area())
		}
		if strict.KFound < 100 {
			t.Fatalf("KFound = %d after k=100", strict.KFound)
		}
	})
}

// isGridAligned checks the quality requirement: the region is exactly
// one pyramid cell or the union of two sibling neighbor cells —
// nothing about its geometry depends on user data.
func isGridAligned(g pyramid.Grid, r geom.Rect, level int) bool {
	cw := g.Universe.Width() / float64(int(1)<<level)
	ch := g.Universe.Height() / float64(int(1)<<level)
	wr, hr := r.Width()/cw, r.Height()/ch
	near := func(v, w float64) bool { return math.Abs(v-w) < 1e-9 }
	shapeOK := (near(wr, 1) && near(hr, 1)) || (near(wr, 2) && near(hr, 1)) || (near(wr, 1) && near(hr, 2))
	if !shapeOK {
		return false
	}
	// Origin on the cell lattice.
	ox := (r.Min.X - g.Universe.Min.X) / cw
	oy := (r.Min.Y - g.Universe.Min.Y) / ch
	return near(ox, math.Round(ox)) && near(oy, math.Round(oy))
}

func TestCloakPropertiesRandomized(t *testing.T) {
	const levels = 7
	rngSetup := rand.New(rand.NewSource(42))
	type userSpec struct {
		p    geom.Point
		prof Profile
	}
	var specs []userSpec
	for i := 0; i < 1000; i++ {
		specs = append(specs, userSpec{
			p: geom.Pt(rngSetup.Float64()*1024, rngSetup.Float64()*1024),
			prof: Profile{
				K:    1 + rngSetup.Intn(50),
				AMin: rngSetup.Float64() * universe.Area() * 0.0001,
			},
		})
	}
	both(t, levels, func(t *testing.T, a Anonymizer) {
		for i, s := range specs {
			if err := a.Register(UserID(i), s.p, s.prof); err != nil {
				t.Fatal(err)
			}
		}
		for i, s := range specs {
			cr, err := a.Cloak(UserID(i))
			if err != nil {
				t.Fatalf("user %d (%+v): %v", i, s.prof, err)
			}
			if !cr.Region.Contains(s.p) {
				t.Fatalf("user %d: region %v misses position %v", i, cr.Region, s.p)
			}
			if cr.KFound < s.prof.K {
				t.Fatalf("user %d: KFound %d < k %d", i, cr.KFound, s.prof.K)
			}
			if cr.Region.Area() < s.prof.AMin-1e-6 {
				t.Fatalf("user %d: area %v < Amin %v", i, cr.Region.Area(), s.prof.AMin)
			}
			if !isGridAligned(a.Grid(), cr.Region, cr.Level) {
				t.Fatalf("user %d: region %v (level %d) not grid aligned", i, cr.Region, cr.Level)
			}
			// KFound is honest: it matches a brute-force census.
			census := 0
			for _, o := range specs {
				if cr.Region.Contains(o.p) {
					census++
				}
			}
			if census < cr.KFound {
				t.Fatalf("user %d: KFound %d exceeds census %d", i, cr.KFound, census)
			}
		}
	})
}

func TestBasicAdaptiveAgreeOnStaticPopulation(t *testing.T) {
	// For a static population both anonymizers run the same Algorithm 1;
	// the adaptive one may start higher but must never produce a region
	// that violates the profile, and in the common case produces the
	// identical region.
	rng := rand.New(rand.NewSource(7))
	b := NewBasic(universe, 7)
	ad := NewAdaptive(universe, 7)
	type spec struct {
		p    geom.Point
		prof Profile
	}
	var specs []spec
	for i := 0; i < 500; i++ {
		s := spec{
			p:    geom.Pt(rng.Float64()*1024, rng.Float64()*1024),
			prof: Profile{K: 1 + rng.Intn(30)},
		}
		specs = append(specs, s)
		if err := b.Register(UserID(i), s.p, s.prof); err != nil {
			t.Fatal(err)
		}
		if err := ad.Register(UserID(i), s.p, s.prof); err != nil {
			t.Fatal(err)
		}
	}
	same := 0
	for i := range specs {
		cb, err := b.Cloak(UserID(i))
		if err != nil {
			t.Fatal(err)
		}
		ca, err := ad.Cloak(UserID(i))
		if err != nil {
			t.Fatal(err)
		}
		if cb.Region == ca.Region {
			same++
		}
		// The adaptive region can only be the same or coarser (it
		// starts from a maintained cell at or above the leaf).
		if ca.Region.Area() < cb.Region.Area()-1e-6 {
			t.Fatalf("user %d: adaptive region %v smaller than basic %v", i, ca.Region, cb.Region)
		}
	}
	if same < len(specs)*8/10 {
		t.Fatalf("only %d/%d cloaks identical between basic and adaptive", same, len(specs))
	}
}

func TestAdaptiveMaintainsFewerCellsForStrictProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	strict := NewAdaptive(universe, 8)
	relaxed := NewAdaptive(universe, 8)
	for i := 0; i < 2000; i++ {
		p := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
		if err := strict.Register(UserID(i), p, Profile{K: 500}); err != nil {
			t.Fatal(err)
		}
		if err := relaxed.Register(UserID(i), p, Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if s, r := strict.MaintainedCells(), relaxed.MaintainedCells(); s >= r {
		t.Fatalf("strict profiles should maintain fewer cells: strict=%d relaxed=%d", s, r)
	}
	if err := strict.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := relaxed.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveChurnConsistency drives a seeded register / deregister /
// reprofile / move churn and checks the split/merge fixed point along
// the way. Users are picked by the seeded generator from a slice of
// live IDs, so a failure replays: two runs touch the same users in the
// same order.
func TestAdaptiveChurnConsistency(t *testing.T) {
	first := runAdaptiveChurn(t, 11)
	if second := runAdaptiveChurn(t, 11); !slices.Equal(first, second) {
		t.Fatal("two runs of one seed touched different users")
	}
}

// runAdaptiveChurn runs the churn from seed and returns the users it
// touched, in order.
func runAdaptiveChurn(t *testing.T, seed int64) []UserID {
	rng := rand.New(rand.NewSource(seed))
	a := NewAdaptive(universe, 7)
	var live, touched []UserID
	next := UserID(0)
	randProfile := func() Profile {
		return Profile{K: 1 + rng.Intn(40), AMin: rng.Float64() * 1000}
	}
	randPoint := func() geom.Point {
		return geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
	}
	// pick returns the index in live of a seeded random user.
	pick := func() int {
		i := rng.Intn(len(live))
		touched = append(touched, live[i])
		return i
	}
	for round := 0; round < 8000; round++ {
		switch r := rng.Float64(); {
		case len(live) == 0 || r < 0.25:
			if err := a.Register(next, randPoint(), randProfile()); err != nil {
				t.Fatal(err)
			}
			live = append(live, next)
			touched = append(touched, next)
			next++
		case r < 0.35:
			i := pick()
			if err := a.Deregister(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case r < 0.45:
			if err := a.SetProfile(live[pick()], randProfile()); err != nil {
				t.Fatal(err)
			}
		default:
			if err := a.Update(live[pick()], randPoint()); err != nil {
				t.Fatal(err)
			}
		}
		if round%1000 == 0 {
			if err := a.CheckConsistency(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if a.Users() != len(live) {
		t.Fatalf("Users = %d, want %d", a.Users(), len(live))
	}
	// All survivors still cloak correctly.
	for _, uid := range live {
		cr, err := a.Cloak(uid)
		if err != nil && !errors.Is(err, ErrUnsatisfiable) {
			t.Fatalf("user %d: %v", uid, err)
		}
		if err == nil {
			pos, _ := a.Position(uid)
			if !cr.Region.Contains(pos) {
				t.Fatalf("user %d: region misses position", uid)
			}
		}
	}
	return touched
}

// TestAdaptiveSmallMovesConsistency walks users in steps of a few
// metres, so most updates stay in their maintained leaf and many of
// those cross into another child quadrant of it, where the split
// criterion can turn true. The structure must stay the split/merge
// fixed point after every move.
func TestAdaptiveSmallMovesConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := NewAdaptive(universe, 7)
	const users = 40
	pos := make([]geom.Point, users)
	for i := range pos {
		pos[i] = geom.Pt(448+rng.Float64()*128, 448+rng.Float64()*128)
		prof := Profile{K: 2 + rng.Intn(5), AMin: rng.Float64() * 500}
		if err := a.Register(UserID(i), pos[i], prof); err != nil {
			t.Fatal(err)
		}
	}
	clamp := func(v float64) float64 { return math.Min(math.Max(v, 0), 1023) }
	for step := 0; step < 4000; step++ {
		i := rng.Intn(users)
		pos[i] = geom.Pt(clamp(pos[i].X+rng.Float64()*8-4), clamp(pos[i].Y+rng.Float64()*8-4))
		if err := a.Update(UserID(i), pos[i]); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatalf("step %d, user %d to %v: %v", step, i, pos[i], err)
		}
	}
}

func TestBasicChurnConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := NewBasic(universe, 7)
	live := map[UserID]bool{}
	next := UserID(0)
	for round := 0; round < 5000; round++ {
		switch r := rng.Float64(); {
		case len(live) == 0 || r < 0.3:
			if err := b.Register(next, geom.Pt(rng.Float64()*1024, rng.Float64()*1024), Profile{K: 1 + rng.Intn(20)}); err != nil {
				t.Fatal(err)
			}
			live[next] = true
			next++
		case r < 0.4:
			var uid UserID
			for u := range live {
				uid = u
				break
			}
			if err := b.Deregister(uid); err != nil {
				t.Fatal(err)
			}
			delete(live, uid)
		default:
			var uid UserID
			for u := range live {
				uid = u
				break
			}
			if err := b.Update(uid, geom.Pt(rng.Float64()*1024, rng.Float64()*1024)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateCostAccounting(t *testing.T) {
	// Adaptive should touch far fewer counters than basic when all
	// users are strict (shallow maintained pyramid).
	rng := rand.New(rand.NewSource(17))
	b := NewBasic(universe, 9)
	a := NewAdaptive(universe, 9)
	pts := make([]geom.Point, 3000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
		prof := Profile{K: 1000} // strict: nobody satisfiable below the root
		if err := b.Register(UserID(i), pts[i], prof); err != nil {
			t.Fatal(err)
		}
		if err := a.Register(UserID(i), pts[i], prof); err != nil {
			t.Fatal(err)
		}
	}
	b.ResetUpdateCost()
	a.ResetUpdateCost()
	for i := range pts {
		np := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
		if err := b.Update(UserID(i), np); err != nil {
			t.Fatal(err)
		}
		if err := a.Update(UserID(i), np); err != nil {
			t.Fatal(err)
		}
	}
	if bc, ac := b.UpdateCost(), a.UpdateCost(); ac >= bc {
		t.Fatalf("adaptive update cost %d should be below basic %d for strict profiles", ac, bc)
	}
}

func TestStepsUpReflectsClimb(t *testing.T) {
	b := NewBasic(universe, 6)
	if err := b.Register(1, geom.Pt(5, 5), Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(2, geom.Pt(1000, 1000), Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	cr, err := b.Cloak(1)
	if err != nil {
		t.Fatal(err)
	}
	if cr.StepsUp != 0 {
		t.Fatalf("relaxed user StepsUp = %d", cr.StepsUp)
	}
	if err := b.SetProfile(1, Profile{K: 2}); err != nil {
		t.Fatal(err)
	}
	cr, err = b.Cloak(1)
	if err != nil {
		t.Fatal(err)
	}
	if cr.StepsUp == 0 {
		t.Fatal("strict user should climb")
	}
}

func TestAdaptiveCloakStartsHigh(t *testing.T) {
	// With uniformly strict users the adaptive anonymizer should not
	// maintain deep levels, so cloaking takes no upward steps.
	rng := rand.New(rand.NewSource(23))
	a := NewAdaptive(universe, 9)
	for i := 0; i < 1000; i++ {
		if err := a.Register(UserID(i), geom.Pt(rng.Float64()*1024, rng.Float64()*1024), Profile{K: 400}); err != nil {
			t.Fatal(err)
		}
	}
	totalSteps := 0
	for i := 0; i < 1000; i++ {
		cr, err := a.Cloak(UserID(i))
		if err != nil {
			t.Fatal(err)
		}
		totalSteps += cr.StepsUp
	}
	b := NewBasic(universe, 9)
	for i := 0; i < 1000; i++ {
		pos, _ := a.Position(UserID(i))
		if err := b.Register(UserID(i), pos, Profile{K: 400}); err != nil {
			t.Fatal(err)
		}
	}
	basicSteps := 0
	for i := 0; i < 1000; i++ {
		cr, err := b.Cloak(UserID(i))
		if err != nil {
			t.Fatal(err)
		}
		basicSteps += cr.StepsUp
	}
	if totalSteps >= basicSteps {
		t.Fatalf("adaptive steps %d should be well below basic %d", totalSteps, basicSteps)
	}
}
