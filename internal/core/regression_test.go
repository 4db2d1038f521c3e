package core

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
	"casper/internal/server"
)

// TestLoadPublicObjectsPropagatesError pins the swallowed-error
// regression: when persistence is configured, LoadPublicObjects runs a
// log compaction whose failure used to be discarded with `_ =` — the
// caller believed the bulk load was durable when the log rewrite never
// happened. A directory squatting on the compaction temp path injects
// the failure (effective even when tests run as root, unlike
// permission bits).
func TestLoadPublicObjectsPropagatesError(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "core.wal")
	cfg := smallConfig(BasicBackend)
	cfg.WALPath = walPath
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	block := walPath + ".compact"
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	objs := []server.PublicObject{{ID: 1, Pos: geom.Pt(5, 5), Name: "poi"}}
	if err := c.LoadPublicObjects(objs); err == nil {
		t.Fatal("LoadPublicObjects swallowed the persistence failure")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadPublicObjects(objs); err != nil {
		t.Fatalf("LoadPublicObjects after unblocking: %v", err)
	}
}

// TestNearestBuddyDeregisterRace hammers the window the ok-check in
// NearestBuddy closes: a user deregistering between the position
// lookup and the pseudonym lookup used to read pid zero from the map's
// missing-key default, silently mis-excluding stored cloaks. With the
// fix every outcome is a clean answer, ErrNotRegistered, or
// ErrNoBuddies. Run under -race this also exercises the layered-lock
// paths.
func TestNearestBuddyDeregisterRace(t *testing.T) {
	c := MustNew(smallConfig(BasicBackend))
	defer c.Close()
	// A stable population of buddies so queries have answers.
	for i := 2; i <= 9; i++ {
		p := geom.Pt(float64(i)*300, float64(i)*300)
		if err := c.RegisterUser(anonymizer.UserID(i), p, anonymizer.Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RegisterUser(1, geom.Pt(100, 100), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churn user 1 in and out of existence
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			_ = c.DeregisterUser(1)
			_ = c.RegisterUser(1, geom.Pt(100, 100), anonymizer.Profile{K: 1})
		}
	}()
	go func() { // query the churning user the whole time
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := c.NearestBuddy(1)
			if err != nil && !errors.Is(err, ErrNotRegistered) && !errors.Is(err, ErrNoBuddies) {
				t.Errorf("NearestBuddy during churn: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestBuddyProbeEveryBackend pins Theorem 3 for "nearest other user"
// on three k = 1 users far apart in the default universe. Dropping the
// asker from the candidate list only after Algorithm 2 had run left
// its own cloak as every filter object, A_EXT shrank to that cloak,
// and every backend answered NearestBuddy(1) with ErrNoBuddies and the
// standing watch with an empty list. A lone asker still gets
// ErrNoBuddies from both.
func TestBuddyProbeEveryBackend(t *testing.T) {
	pos := []geom.Point{geom.Pt(1000, 1000), geom.Pt(20000, 20000), geom.Pt(39000, 39000)}
	for _, backend := range anonymizer.Backends() {
		t.Run(backend, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Backend = backend
			c := MustNew(cfg)
			c.EnableContinuous(nil)
			for i, p := range pos {
				if err := c.RegisterUser(anonymizer.UserID(i+1), p, anonymizer.Profile{K: 1}); err != nil {
					t.Fatal(err)
				}
			}
			self, _ := c.pseudo.Get(1)
			want, _ := c.pseudo.Get(2)
			check := func(what string, cands []rtree.Item) {
				t.Helper()
				if slices.ContainsFunc(cands, func(it rtree.Item) bool { return it.ID == self }) {
					t.Fatalf("%s: the asker's own cloak is a candidate", what)
				}
				if !slices.ContainsFunc(cands, func(it rtree.Item) bool { return it.ID == want }) {
					t.Fatalf("%s: nearest other user missing from %d candidates", what, len(cands))
				}
			}

			ans, err := c.NearestBuddy(1)
			if err != nil {
				t.Fatalf("NearestBuddy: %v", err)
			}
			check("NearestBuddy", ans.Candidates)
			if ans.Exact.ID != want {
				t.Fatalf("NearestBuddy refined to %d, want %d", ans.Exact.ID, want)
			}
			_, cands, err := c.WatchNearest(1, privacyqp.PrivateData)
			if err != nil {
				t.Fatalf("WatchNearest: %v", err)
			}
			check("WatchNearest", cands)

			for _, uid := range []anonymizer.UserID{2, 3} {
				if err := c.DeregisterUser(uid); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.NearestBuddy(1); !errors.Is(err, ErrNoBuddies) {
				t.Fatalf("lone NearestBuddy: %v, want ErrNoBuddies", err)
			}
			if _, _, err := c.WatchNearest(1, privacyqp.PrivateData); !errors.Is(err, ErrNoBuddies) {
				t.Fatalf("lone WatchNearest: %v, want ErrNoBuddies", err)
			}
		})
	}
}
