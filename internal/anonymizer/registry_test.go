package anonymizer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"casper/internal/geom"
)

func validBackendConfig() BackendConfig {
	return BackendConfig{Universe: universe, Levels: 5}
}

func TestBackendConfigValidate(t *testing.T) {
	mut := func(f func(*BackendConfig)) BackendConfig {
		c := validBackendConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  BackendConfig
		ok   bool
	}{
		{"valid", validBackendConfig(), true},
		{"valid epsilon", mut(func(c *BackendConfig) { c.Epsilon = 0.5 }), true},
		{"valid mink", mut(func(c *BackendConfig) { c.MinK = 3 }), true},
		{"zero universe", mut(func(c *BackendConfig) { c.Universe = geom.Rect{} }), false},
		{"degenerate universe", mut(func(c *BackendConfig) { c.Universe = geom.R(0, 0, 10, 0) }), false},
		{"zero levels", mut(func(c *BackendConfig) { c.Levels = 0 }), false},
		{"negative levels", mut(func(c *BackendConfig) { c.Levels = -3 }), false},
		{"negative epsilon", mut(func(c *BackendConfig) { c.Epsilon = -0.1 }), false},
		{"NaN epsilon", mut(func(c *BackendConfig) { c.Epsilon = math.NaN() }), false},
		{"+Inf epsilon", mut(func(c *BackendConfig) { c.Epsilon = math.Inf(1) }), false},
		{"-Inf epsilon", mut(func(c *BackendConfig) { c.Epsilon = math.Inf(-1) }), false},
		{"negative mink", mut(func(c *BackendConfig) { c.MinK = -1 }), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.ok && err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", c.cfg, err)
			}
			if !c.ok && err == nil {
				t.Fatalf("Validate(%+v) accepted an invalid config", c.cfg)
			}
		})
	}
}

func TestRegistryBuiltins(t *testing.T) {
	want := []string{"adaptive", "basic", "cluster", "geoind"}
	got := Backends()
	for _, name := range want {
		if !Registered(name) {
			t.Fatalf("built-in backend %q not registered (got %v)", name, got)
		}
		a, err := New(name, validBackendConfig())
		if err != nil {
			t.Fatalf("New(%q) = %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, a.Name())
		}
	}
}

func TestRegistryDefaultAndUnknown(t *testing.T) {
	a, err := New("", validBackendConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != DefaultBackend {
		t.Fatalf(`New("") built %q, want the default %q`, a.Name(), DefaultBackend)
	}

	_, err = New("no-such-backend", validBackendConfig())
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	// The error must spell out what IS registered: it's the operator's
	// first diagnostic at casperd startup.
	for _, name := range []string{"basic", "adaptive", "cluster", "geoind"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-backend error %q does not list %q", err, name)
		}
	}

	// Invalid config is rejected before the factory runs, even for
	// unknown names with an otherwise-registered default.
	bad := validBackendConfig()
	bad.Levels = 0
	if _, err := New("basic", bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRegistryKnobsReachBackends(t *testing.T) {
	cfg := validBackendConfig()
	cfg.Epsilon = 0.25
	cfg.MinK = 7

	g, err := New("geoind", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eps := g.(*GeoInd).Epsilon(); eps != 0.25 {
		t.Fatalf("geoind epsilon = %v, want 0.25", eps)
	}

	cl, err := New("cluster", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mk := cl.(*Cluster).MinK(); mk != 7 {
		t.Fatalf("cluster min k = %d, want 7", mk)
	}
}

// TestRegistryEquivalence is the refactor's bit-for-bit property test:
// a backend built through the registry must behave identically to the
// directly constructed implementation the old enum switch produced —
// same cloaks, same errors, same update-cost accounting — over a
// seeded workload of registrations, moves, profile changes and
// deregistrations.
func TestRegistryEquivalence(t *testing.T) {
	for _, name := range []string{"basic", "adaptive"} {
		t.Run(name, func(t *testing.T) {
			const levels = 6
			viaRegistry, err := New(name, BackendConfig{Universe: universe, Levels: levels})
			if err != nil {
				t.Fatal(err)
			}
			var direct Anonymizer
			if name == "basic" {
				direct = NewBasic(universe, levels)
			} else {
				direct = NewAdaptive(universe, levels)
			}

			rng := rand.New(rand.NewSource(42))
			randPos := func() geom.Point {
				return geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
			}
			randProf := func() Profile {
				return Profile{K: 1 + rng.Intn(8), AMin: float64(rng.Intn(4)) * 256}
			}

			live := make(map[UserID]bool)
			for i := 0; i < 400; i++ {
				uid := UserID(rng.Intn(120))
				switch op := rng.Intn(10); {
				case op < 4: // register
					p, prof := randPos(), randProf()
					e1, e2 := viaRegistry.Register(uid, p, prof), direct.Register(uid, p, prof)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("op %d register(%d): registry err %v, direct err %v", i, uid, e1, e2)
					}
					if e1 == nil {
						live[uid] = true
					}
				case op < 6: // move
					p := randPos()
					e1, e2 := viaRegistry.Update(uid, p), direct.Update(uid, p)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("op %d update(%d): registry err %v, direct err %v", i, uid, e1, e2)
					}
				case op < 7: // profile change
					prof := randProf()
					e1, e2 := viaRegistry.SetProfile(uid, prof), direct.SetProfile(uid, prof)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("op %d setprofile(%d): registry err %v, direct err %v", i, uid, e1, e2)
					}
				case op < 8: // deregister
					e1, e2 := viaRegistry.Deregister(uid), direct.Deregister(uid)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("op %d deregister(%d): registry err %v, direct err %v", i, uid, e1, e2)
					}
					delete(live, uid)
				default: // cloak
					cr1, e1 := viaRegistry.Cloak(uid)
					cr2, e2 := direct.Cloak(uid)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("op %d cloak(%d): registry err %v, direct err %v", i, uid, e1, e2)
					}
					if cr1 != cr2 {
						t.Fatalf("op %d cloak(%d): registry %+v != direct %+v", i, uid, cr1, cr2)
					}
				}
			}

			// Every surviving user cloaks identically at the end.
			for uid := range live {
				cr1, e1 := viaRegistry.Cloak(uid)
				cr2, e2 := direct.Cloak(uid)
				if (e1 == nil) != (e2 == nil) || cr1 != cr2 {
					t.Fatalf("final cloak(%d): registry (%+v, %v) != direct (%+v, %v)", uid, cr1, e1, cr2, e2)
				}
			}
			if viaRegistry.Users() != direct.Users() {
				t.Fatalf("Users(): registry %d != direct %d", viaRegistry.Users(), direct.Users())
			}
			if viaRegistry.UpdateCost() != direct.UpdateCost() {
				t.Fatalf("UpdateCost(): registry %d != direct %d", viaRegistry.UpdateCost(), direct.UpdateCost())
			}
		})
	}
}

func TestForEachUserSnapshots(t *testing.T) {
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) {
			a, err := New(name, validBackendConfig())
			if err != nil {
				t.Fatal(err)
			}
			want := map[UserID]geom.Point{
				1: geom.Pt(100, 100),
				2: geom.Pt(200, 300),
				3: geom.Pt(900, 50),
			}
			for uid, p := range want {
				if err := a.Register(uid, p, Profile{K: 1}); err != nil {
					t.Fatal(err)
				}
			}
			got := make(map[UserID]geom.Point)
			a.ForEachUser(func(uid UserID, p geom.Point, prof Profile) bool {
				got[uid] = p
				if prof.K != 1 {
					t.Fatalf("uid %d profile %+v", uid, prof)
				}
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("walked %d users, want %d", len(got), len(want))
			}
			for uid, p := range want {
				if got[uid] != p {
					t.Fatalf("uid %d at %v, want %v", uid, got[uid], p)
				}
			}
			// A false return stops the walk.
			n := 0
			a.ForEachUser(func(UserID, geom.Point, Profile) bool {
				n++
				return false
			})
			if n != 1 {
				t.Fatalf("walk visited %d users after stop, want 1", n)
			}
		})
	}
}

// BenchmarkBackendCloak compares one cloak operation across every
// registered backend over the same seeded population.
func BenchmarkBackendCloak(b *testing.B) {
	for _, name := range Backends() {
		b.Run(name, func(b *testing.B) {
			a, err := New(name, BackendConfig{Universe: universe, Levels: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			const users = 2000
			for i := 0; i < users; i++ {
				p := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
				if err := a.Register(UserID(i), p, Profile{K: 1 + rng.Intn(16)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Cloak(UserID(i % users)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
