package core

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/server"
)

// TestRegisterRollbackOnUnsatisfiable checks that a registration whose
// initial cloak fails leaves no ghost user behind: the same uid can
// retry with a feasible profile instead of hitting ErrAlreadyRegistered.
func TestRegisterRollbackOnUnsatisfiable(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	defer c.Close()
	populate(t, c, 3, 5, 1)
	err := c.RegisterUser(50, geom.Pt(10, 10), anonymizer.Profile{K: 100})
	if !errors.Is(err, anonymizer.ErrUnsatisfiable) {
		t.Fatalf("register = %v, want ErrUnsatisfiable", err)
	}
	if got := c.Users(); got != 3 {
		t.Fatalf("Users() = %d after failed register, want 3", got)
	}
	if err := c.RegisterUser(50, geom.Pt(10, 10), anonymizer.Profile{K: 2}); err != nil {
		t.Fatalf("retry register: %v", err)
	}
}

// TestConcurrentWritesRecoverLiveState: with a WAL configured, four
// goroutines interleave single and batched location updates with public
// adds and removes on overlapping ids, many of which the server
// refuses. The server logs under the same write lock it applies under,
// so the log order is the apply order: a reopened instance must hold
// exactly the cloak of every pseudonym and the public table that were
// live at Close.
func TestConcurrentWritesRecoverLiveState(t *testing.T) {
	cfg := smallConfig(AdaptiveBackend)
	cfg.WALPath = filepath.Join(t.TempDir(), "casper.wal")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const base, targets = 48, 12
	populate(t, c, base, targets, 11)
	u := c.Config().Universe

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pt := func() geom.Point { return geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height()) }
			for i := 0; i < 200; i++ {
				var err error
				switch rng.Intn(4) {
				case 0:
					err = c.UpdateUser(anonymizer.UserID(rng.Intn(base)), pt())
				case 1:
					ups := make([]UserUpdate, 1+rng.Intn(8))
					for j := range ups {
						ups[j] = UserUpdate{UID: anonymizer.UserID(rng.Intn(base)), Pos: pt()}
					}
					_, err = c.UpdateUsers(ups)
				case 2:
					id := int64(rng.Intn(2 * targets))
					err = c.AddPublicObject(server.PublicObject{ID: id, Pos: pt(), Name: fmt.Sprintf("g%d-%d", seed, i)})
				default:
					err = c.RemovePublicObject(int64(rng.Intn(2 * targets)))
				}
				if err != nil && !errors.Is(err, server.ErrDuplicateObject) && !errors.Is(err, server.ErrUnknownObject) {
					t.Errorf("concurrent write: %v", err)
				}
			}
		}(int64(g))
	}
	wg.Wait()

	live := make(map[int64]geom.Rect, base)
	c.pseudo.Range(func(_ int64, pid int64) bool {
		o, ok := c.srv.GetPrivate(pid)
		if !ok {
			t.Errorf("pseudonym %d has no stored cloak", pid)
		}
		live[pid] = o.Region
		return true
	})
	livePub := publicTable(c.srv)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.srv.PrivateCount(); got != len(live) {
		t.Fatalf("recovered %d cloaks, %d were live", got, len(live))
	}
	for pid, want := range live {
		if o, ok := re.srv.GetPrivate(pid); !ok || o.Region != want {
			t.Fatalf("pseudonym %d recovered as %v (present %v), live was %v", pid, o.Region, ok, want)
		}
	}
	if got := publicTable(re.srv); !reflect.DeepEqual(got, livePub) {
		t.Fatalf("recovered public table %v, live was %v", got, livePub)
	}
}

// publicTable reads the server's public table by id.
func publicTable(s *server.Server) map[int64]server.PublicObject {
	out := make(map[int64]server.PublicObject)
	for _, it := range s.PublicItems() {
		o, _ := s.GetPublic(it.ID)
		out[it.ID] = o
	}
	return out
}

// TestConcurrentMixedWorkload hammers one Casper instance with parallel
// registrations, location updates, queries, deregistrations and
// administrator counts. It exists to be run under -race: any missing
// lock in the framework, anonymizer, server or WAL path shows up here.
func TestConcurrentMixedWorkload(t *testing.T) {
	for _, kind := range []string{BasicBackend, AdaptiveBackend} {
		kind := kind
		t.Run("backend="+kind, func(t *testing.T) {
			t.Parallel()
			c := MustNew(smallConfig(kind))
			defer c.Close()
			const base = 64
			populate(t, c, base, 40, 7)
			u := c.Config().Universe

			var wg sync.WaitGroup
			errs := make(chan error, 64)
			report := func(op string, err error) {
				// Empty-answer sentinels are legitimate outcomes of a
				// query race, not failures.
				if err == nil || errors.Is(err, ErrEmptyCandidates) || errors.Is(err, ErrNoBuddies) {
					return
				}
				select {
				case errs <- fmt.Errorf("%s: %w", op, err):
				default:
				}
			}

			// Updaters move the base population around.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 150; i++ {
						uid := anonymizer.UserID(rng.Intn(base))
						p := geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height())
						report("update", c.UpdateUser(uid, p))
					}
				}(int64(g))
			}

			// Churners register fresh users and deregister them again.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + g)))
					for i := 0; i < 40; i++ {
						uid := anonymizer.UserID(1000 + g*1000 + i)
						p := geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height())
						report("register", c.RegisterUser(uid, p, anonymizer.Profile{K: 1 + rng.Intn(5)}))
						report("setprofile", c.SetProfile(uid, anonymizer.Profile{K: 1 + rng.Intn(8)}))
						report("deregister", c.DeregisterUser(uid))
					}
				}(g)
			}

			// Queriers run the private query mix against base users.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 80; i++ {
						uid := anonymizer.UserID(rng.Intn(base))
						switch i % 4 {
						case 0:
							_, err := c.NearestPublic(uid)
							report("nn", err)
						case 1:
							_, _, err := c.KNearestPublic(uid, 1+rng.Intn(4))
							report("knn", err)
						case 2:
							_, _, err := c.RangePublic(uid, 200+rng.Float64()*400)
							report("range", err)
						default:
							_, err := c.NearestBuddy(uid)
							report("buddy", err)
						}
					}
				}(int64(200 + g))
			}

			// One administrator counts and maps density throughout.
			wg.Add(1)
			go func() {
				defer wg.Done()
				half := geom.R(0, 0, u.Width()/2, u.Height()/2)
				for i := 0; i < 60; i++ {
					_, err := c.CountUsersIn(half, privacyqp.CountFractional)
					report("count", err)
					_, err = c.UserDensityGrid(8)
					report("density", err)
				}
			}()

			wg.Wait()
			close(errs)
			for err := range errs {
				t.Errorf("concurrent workload: %v", err)
			}

			// All churned users left again; the base population survives.
			if got := c.Users(); got != base {
				t.Fatalf("Users() = %d after churn, want %d", got, base)
			}
			if _, err := c.NearestPublic(0); err != nil {
				t.Fatalf("post-stress NN: %v", err)
			}
		})
	}
}
