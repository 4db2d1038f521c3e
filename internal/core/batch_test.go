package core

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
)

// TestUpdateUsersBatchSemantics: a batch stores exactly the regions
// the equivalent sequence of UpdateUser calls stores. Twin instances
// with the same seed run the same update sequence, one batched and one
// call-by-call, and must end with identical per-user stored cloaks.
func TestUpdateUsersBatchSemantics(t *testing.T) {
	for _, kind := range []string{BasicBackend, AdaptiveBackend} {
		t.Run("backend="+kind, func(t *testing.T) {
			single := MustNew(smallConfig(kind))
			defer single.Close()
			batched := MustNew(smallConfig(kind))
			defer batched.Close()
			populate(t, single, 32, 10, 11)
			populate(t, batched, 32, 10, 11)
			u := single.Config().Universe
			rng := rand.New(rand.NewSource(42))
			batch := make([]UserUpdate, 32)
			for i := range batch {
				batch[i] = UserUpdate{
					UID: anonymizer.UserID(i),
					Pos: geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height()),
				}
			}
			for _, up := range batch {
				if err := single.UpdateUser(up.UID, up.Pos); err != nil {
					t.Fatalf("UpdateUser %d: %v", up.UID, err)
				}
			}
			applied, err := batched.UpdateUsers(batch)
			if err != nil {
				t.Fatalf("UpdateUsers: %v", err)
			}
			if applied != len(batch) {
				t.Fatalf("applied = %d, want %d", applied, len(batch))
			}
			for i := range batch {
				spid, ok := single.pseudo.Get(int64(i))
				if !ok {
					t.Fatalf("single: pseudonym for %d missing", i)
				}
				bpid, ok := batched.pseudo.Get(int64(i))
				if !ok {
					t.Fatalf("batched: pseudonym for %d missing", i)
				}
				sobj, ok1 := single.srv.GetPrivate(spid)
				bobj, ok2 := batched.srv.GetPrivate(bpid)
				if !ok1 || !ok2 {
					t.Fatalf("user %d: stored cloak missing (single=%v batched=%v)", i, ok1, ok2)
				}
				if sobj.Region != bobj.Region {
					t.Fatalf("user %d: batched region %v != sequential region %v", i, bobj.Region, sobj.Region)
				}
			}
		})
	}
}

// TestUpdateUsersAbortsAtUnknownUser: the batch stops at the first
// unknown uid, reports how many entries were fully applied, and the
// applied prefix is stored.
func TestUpdateUsersAbortsAtUnknownUser(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	defer c.Close()
	populate(t, c, 8, 5, 3)
	u := c.Config().Universe
	batch := []UserUpdate{
		{UID: 0, Pos: geom.Pt(u.Width()/3, u.Height()/3)},
		{UID: 1, Pos: geom.Pt(u.Width()/2, u.Height()/2)},
		{UID: 9999, Pos: geom.Pt(10, 10)}, // not registered
		{UID: 2, Pos: geom.Pt(u.Width()/4, u.Height()/4)},
	}
	applied, err := c.UpdateUsers(batch)
	if !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("UpdateUsers err = %v, want ErrNotRegistered", err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	// The applied prefix reached the server.
	for i := 0; i < 2; i++ {
		cr, err := c.anon().Cloak(anonymizer.UserID(i))
		if err != nil {
			t.Fatalf("cloak %d: %v", i, err)
		}
		pid, _ := c.pseudo.Get(int64(i))
		obj, ok := c.srv.GetPrivate(pid)
		if !ok || obj.Region != cr.Region {
			t.Fatalf("user %d: prefix not stored (ok=%v)", i, ok)
		}
	}
}

// TestUpdateUsersEmptyBatch is the trivial-input contract.
func TestUpdateUsersEmptyBatch(t *testing.T) {
	c := MustNew(smallConfig(BasicBackend))
	defer c.Close()
	if n, err := c.UpdateUsers(nil); n != 0 || err != nil {
		t.Fatalf("UpdateUsers(nil) = %d, %v", n, err)
	}
}

// TestUpdateUsersPersistsThroughWAL: batched updates are durable — a
// reopened instance serves the batch's final cloaks.
func TestUpdateUsersPersistsThroughWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	cfg := smallConfig(AdaptiveBackend)
	cfg.WALPath = path
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	positions := populate(t, c, 16, 5, 5)
	_ = positions
	u := cfg.Universe
	rng := rand.New(rand.NewSource(8))
	batch := make([]UserUpdate, 16)
	for i := range batch {
		batch[i] = UserUpdate{
			UID: anonymizer.UserID(i),
			Pos: geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height()),
		}
	}
	if _, err := c.UpdateUsers(batch); err != nil {
		t.Fatalf("UpdateUsers: %v", err)
	}
	want := make(map[int64]geom.Rect)
	for i := range batch {
		pid, _ := c.pseudo.Get(int64(i))
		obj, ok := c.srv.GetPrivate(pid)
		if !ok {
			t.Fatalf("cloak for %d missing before restart", i)
		}
		want[pid] = obj.Region
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for pid, region := range want {
		obj, ok := re.srv.GetPrivate(pid)
		if !ok || obj.Region != region {
			t.Fatalf("pseudonym %d after restart: %+v, %v; want %v", pid, obj, ok, region)
		}
	}
}

// TestConcurrentBatchWorkload mixes batched updates with single
// updates, registrations/deregistrations, and queries. Batch entries
// deliberately hop across top-level quadrant seams, so cloaks climb to
// the top pyramid levels while updates rewrite them. Run under -race
// this is the end-to-end check that the write path has no missing
// lock.
func TestConcurrentBatchWorkload(t *testing.T) {
	for _, kind := range []string{BasicBackend, AdaptiveBackend} {
		kind := kind
		t.Run("backend="+kind, func(t *testing.T) {
			t.Parallel()
			c := MustNew(smallConfig(kind))
			defer c.Close()
			const base = 64
			populate(t, c, base, 20, 17)
			u := c.Config().Universe
			cx, cy := u.Width()/2, u.Height()/2 // quadrant seams

			var wg sync.WaitGroup
			errs := make(chan error, 64)
			report := func(op string, err error) {
				if err == nil || errors.Is(err, ErrEmptyCandidates) || errors.Is(err, ErrNoBuddies) {
					return
				}
				select {
				case errs <- fmt.Errorf("%s: %w", op, err):
				default:
				}
			}

			// Batch updaters: each round builds a batch half of which
			// hugs the quadrant seams (forcing moves that rewrite the
			// top pyramid levels), half scattered.
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for round := 0; round < 50; round++ {
						batch := make([]UserUpdate, 16)
						for i := range batch {
							uid := anonymizer.UserID(rng.Intn(base))
							var p geom.Point
							if i%2 == 0 {
								p = geom.Pt(cx+(rng.Float64()-0.5)*40, cy+(rng.Float64()-0.5)*40)
							} else {
								p = geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height())
							}
							batch[i] = UserUpdate{UID: uid, Pos: p}
						}
						_, err := c.UpdateUsers(batch)
						report("batch", err)
					}
				}(int64(g))
			}

			// Single updaters interleave with the batches.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 100; i++ {
						uid := anonymizer.UserID(rng.Intn(base))
						report("update", c.UpdateUser(uid, geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height())))
					}
				}(int64(50 + g))
			}

			// Churners register and deregister outside the base range; a
			// batch may race a deregister, which must be silently skipped,
			// not crash or corrupt.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 40; i++ {
					uid := anonymizer.UserID(5000 + i)
					p := geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height())
					report("register", c.RegisterUser(uid, p, anonymizer.Profile{K: 1 + rng.Intn(4)}))
					_, err := c.UpdateUsers([]UserUpdate{{UID: uid, Pos: geom.Pt(cx, cy)}})
					report("churn-batch", err)
					report("deregister", c.DeregisterUser(uid))
				}
			}()

			// Queriers keep the read path busy.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 60; i++ {
						uid := anonymizer.UserID(rng.Intn(base))
						if i%2 == 0 {
							_, err := c.NearestPublic(uid)
							report("nn", err)
						} else {
							_, err := c.NearestBuddy(uid)
							report("buddy", err)
						}
					}
				}(int64(200 + g))
			}

			wg.Wait()
			close(errs)
			for err := range errs {
				t.Errorf("concurrent batch workload: %v", err)
			}
			if got := c.Users(); got != base {
				t.Fatalf("Users() = %d after churn, want %d", got, base)
			}
			if chk, ok := c.anon().(interface{ CheckConsistency() error }); ok {
				if err := chk.CheckConsistency(); err != nil {
					t.Fatalf("anonymizer consistency after stress: %v", err)
				}
			}
		})
	}
}
