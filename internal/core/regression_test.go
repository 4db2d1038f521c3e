package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
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
