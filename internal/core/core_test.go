package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/server"
)

func smallConfig(kind string) Config {
	cfg := DefaultConfig()
	cfg.Universe = geom.R(0, 0, 4096, 4096)
	cfg.PyramidLevels = 7
	cfg.Backend = kind
	return cfg
}

// populate registers n users at random positions with relaxed-ish
// profiles and loads m public targets.
func populate(t *testing.T, c *Casper, n, m int, seed int64) []geom.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	u := c.Config().Universe
	positions := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		positions[i] = geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height())
		// The paper requires k not to exceed the registered population
		// (Sec. 4.1); keep early registrations satisfiable.
		maxK := 10
		if i+1 < maxK {
			maxK = i + 1
		}
		prof := anonymizer.Profile{K: 1 + rng.Intn(maxK)}
		if err := c.RegisterUser(anonymizer.UserID(i), positions[i], prof); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	objs := make([]server.PublicObject, m)
	for i := range objs {
		objs[i] = server.PublicObject{
			ID:   int64(i),
			Pos:  geom.Pt(rng.Float64()*u.Width(), rng.Float64()*u.Height()),
			Name: "poi",
		}
	}
	c.LoadPublicObjects(objs)
	return positions
}

// pidOf returns uid's server pseudonym, failing the test when the
// framework holds none.
func pidOf(t *testing.T, c *Casper, uid anonymizer.UserID) int64 {
	t.Helper()
	pid, ok := c.pseudonym(uid)
	if !ok {
		t.Fatalf("no pseudonym for user %d", uid)
	}
	return pid
}

func TestTransmissionModel(t *testing.T) {
	m := DefaultTransmission()
	if m.Time(0) != 0 || m.Time(-3) != 0 {
		t.Fatal("non-positive record counts should cost nothing")
	}
	// 100 records * 64 B * 8 = 51200 bits over 100 Mbps = 512 us.
	if got, want := m.Time(100), 512*time.Microsecond; got != want {
		t.Fatalf("Time(100) = %v, want %v", got, want)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Cloak: time.Millisecond, Query: 2 * time.Millisecond, Transmit: 3 * time.Millisecond}
	if b.Total() != 6*time.Millisecond {
		t.Fatalf("Total = %v", b.Total())
	}
}

func TestRegisterPushesCloakUnderPseudonym(t *testing.T) {
	for _, kind := range []string{BasicBackend, AdaptiveBackend} {
		c := MustNew(smallConfig(kind))
		pos := geom.Pt(100, 100)
		if err := c.RegisterUser(1, pos, anonymizer.Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
		if c.Users() != 1 || c.Server().PrivateCount() != 1 {
			t.Fatalf("users=%d private=%d", c.Users(), c.Server().PrivateCount())
		}
		// The server's stored region covers the user but the server
		// never saw the user ID 1: its pseudonym is random.
		if _, ok := c.Server().GetPrivate(1); ok {
			t.Fatal("server indexed by raw user ID — pseudonymity broken")
		}
		n, err := c.CountUsersIn(geom.R(0, 0, 4096, 4096), privacyqp.CountAnyOverlap)
		if err != nil || n != 1 {
			t.Fatalf("count = %v, %v", n, err)
		}
	}
}

func TestDuplicateRegisterRejected(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	if err := c.RegisterUser(1, geom.Pt(1, 1), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterUser(1, geom.Pt(2, 2), anonymizer.Profile{K: 1}); err == nil {
		t.Fatal("duplicate register accepted")
	}
}

func TestUpdateRefreshesServerRegion(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	if err := c.RegisterUser(1, geom.Pt(10, 10), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	before, _ := c.CountUsersIn(geom.R(0, 0, 100, 100), privacyqp.CountAnyOverlap)
	if before != 1 {
		t.Fatalf("before = %v", before)
	}
	if err := c.UpdateUser(1, geom.Pt(4000, 4000)); err != nil {
		t.Fatal(err)
	}
	after, _ := c.CountUsersIn(geom.R(0, 0, 100, 100), privacyqp.CountAnyOverlap)
	if after != 0 {
		t.Fatalf("stale region still at the server: count=%v", after)
	}
	far, _ := c.CountUsersIn(geom.R(3900, 3900, 4096, 4096), privacyqp.CountAnyOverlap)
	if far != 1 {
		t.Fatalf("moved region missing: count=%v", far)
	}
}

func TestDeregisterCleansBothSides(t *testing.T) {
	c := MustNew(smallConfig(BasicBackend))
	if err := c.RegisterUser(1, geom.Pt(10, 10), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeregisterUser(1); err != nil {
		t.Fatal(err)
	}
	if c.Users() != 0 || c.Server().PrivateCount() != 0 {
		t.Fatalf("users=%d private=%d", c.Users(), c.Server().PrivateCount())
	}
	if err := c.DeregisterUser(1); err == nil {
		t.Fatal("double deregister accepted")
	}
}

func TestNearestPublicEndToEnd(t *testing.T) {
	for _, kind := range []string{BasicBackend, AdaptiveBackend} {
		c := MustNew(smallConfig(kind))
		positions := populate(t, c, 200, 500, 5)
		for uid := 0; uid < 50; uid++ {
			ans, err := c.NearestPublic(anonymizer.UserID(uid))
			if err != nil {
				t.Fatalf("uid %d: %v", uid, err)
			}
			// The refined answer is the true nearest public object.
			user := positions[uid]
			bd := math.MaxFloat64
			var best int64 = -1
			for i := 0; i < 500; i++ {
				o, _ := c.Server().GetPublic(int64(i))
				if d := user.Dist(o.Pos); d < bd {
					bd, best = d, int64(i)
				}
			}
			if got := user.Dist(ans.Exact.Rect.Min); math.Abs(got-bd) > 1e-9 {
				t.Fatalf("uid %d: refined NN %d at %v, true %d at %v", uid, ans.Exact.ID, got, best, bd)
			}
			if ans.Cost.Candidates != len(ans.Candidates) {
				t.Fatal("cost candidate count mismatch")
			}
			if ans.Cost.Transmit != DefaultTransmission().Time(len(ans.Candidates)) {
				t.Fatal("transmit time mismatch")
			}
			if !ans.CloakedQuery.Contains(user) {
				t.Fatal("cloaked query region misses the user")
			}
		}
	}
}

func TestNearestBuddyEndToEnd(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	populate(t, c, 300, 0, 6)
	for uid := 0; uid < 30; uid++ {
		ans, err := c.NearestBuddy(anonymizer.UserID(uid))
		if err != nil {
			t.Fatalf("uid %d: %v", uid, err)
		}
		if len(ans.Candidates) == 0 {
			t.Fatalf("uid %d: empty buddy candidates", uid)
		}
		// The exact answer is a cloaked region, never the asker's own.
		if ans.Exact.Rect == ans.CloakedQuery {
			// Possible coincidence if another user shares the cell;
			// just check the pseudonym differs from ours via region
			// membership count.
			continue
		}
	}
}

func TestRangePublicEndToEnd(t *testing.T) {
	c := MustNew(smallConfig(BasicBackend))
	positions := populate(t, c, 100, 800, 7)
	for uid := 0; uid < 20; uid++ {
		items, bd, err := c.RangePublic(anonymizer.UserID(uid), 500)
		if err != nil {
			t.Fatal(err)
		}
		if bd.Candidates < len(items) {
			t.Fatal("refined set larger than candidate list")
		}
		// Refined set is exactly the truth.
		user := positions[uid]
		want := 0
		for i := 0; i < 800; i++ {
			o, _ := c.Server().GetPublic(int64(i))
			if user.Dist(o.Pos) <= 500 {
				want++
			}
		}
		if len(items) != want {
			t.Fatalf("uid %d: range size %d, want %d", uid, len(items), want)
		}
	}
}

func TestUnsatisfiableProfileSurfacesError(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	err := c.RegisterUser(1, geom.Pt(1, 1), anonymizer.Profile{K: 50})
	if err == nil {
		t.Fatal("expected unsatisfiable cloak error on register (only 1 user)")
	}
}

func TestStricterProfilesGrowCandidateLists(t *testing.T) {
	// The paper's central trade-off (Sec. 3): stricter privacy -> larger
	// candidate list -> lower quality of service.
	c := MustNew(smallConfig(AdaptiveBackend))
	populate(t, c, 500, 2000, 8)
	relaxedTotal, strictTotal := 0, 0
	for uid := 0; uid < 40; uid++ {
		ans, err := c.NearestPublic(anonymizer.UserID(uid))
		if err != nil {
			t.Fatal(err)
		}
		relaxedTotal += len(ans.Candidates)
	}
	for uid := 0; uid < 40; uid++ {
		if err := c.SetProfile(anonymizer.UserID(uid), anonymizer.Profile{K: 200}); err != nil {
			t.Fatal(err)
		}
	}
	for uid := 0; uid < 40; uid++ {
		ans, err := c.NearestPublic(anonymizer.UserID(uid))
		if err != nil {
			t.Fatal(err)
		}
		strictTotal += len(ans.Candidates)
	}
	if strictTotal <= relaxedTotal {
		t.Fatalf("stricter profiles should grow candidate lists: %d -> %d", relaxedTotal, strictTotal)
	}
}

func TestKNearestPublicRefinesExactly(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	positions := populate(t, c, 150, 600, 9)
	const k = 4
	for uid := 0; uid < 25; uid++ {
		items, bd, err := c.KNearestPublic(anonymizer.UserID(uid), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != k {
			t.Fatalf("uid %d: %d items", uid, len(items))
		}
		if bd.Candidates < k {
			t.Fatalf("uid %d: candidate list smaller than k", uid)
		}
		user := positions[uid]
		// Brute-force the true k-th distance and compare.
		var ds []float64
		for i := 0; i < 600; i++ {
			o, _ := c.Server().GetPublic(int64(i))
			ds = append(ds, user.Dist(o.Pos))
		}
		sort.Float64s(ds)
		for i, it := range items {
			if d := user.Dist(it.Rect.Min); math.Abs(d-ds[i]) > 1e-9 {
				t.Fatalf("uid %d rank %d: dist %v, want %v", uid, i, d, ds[i])
			}
		}
	}
}

func TestContinuousIntegration(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	positions := populate(t, c, 120, 400, 10)
	_ = positions

	var events []continuous.Event
	mon := c.EnableContinuous(func(e continuous.Event) { events = append(events, e) })
	if mon == nil || c.Monitor() != mon {
		t.Fatal("monitor not attached")
	}
	// Re-enabling returns the same monitor.
	if c.EnableContinuous(nil) != mon {
		t.Fatal("EnableContinuous not idempotent")
	}

	// A standing count over the whole universe tracks the population.
	qid, count, err := mon.RegisterRangeCount(c.Config().Universe, privacyqp.CountAnyOverlap)
	if err != nil {
		t.Fatal(err)
	}
	if count != 120 {
		t.Fatalf("seeded count = %v, want 120", count)
	}
	if err := c.DeregisterUser(5); err != nil {
		t.Fatal(err)
	}
	if got, _ := mon.Count(qid); got != 119 {
		t.Fatalf("count after deregister = %v", got)
	}

	// A continuous nearest-buddy watch follows the user around.
	wid, cands, err := c.WatchNearest(7, privacyqp.PrivateData)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no initial buddy candidates")
	}
	before := len(events)
	// Move user 7 across the map; the watch must re-evaluate.
	if err := c.UpdateUser(7, geom.Pt(4000, 4000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := mon.Candidates(wid); !ok {
		t.Fatal("watch vanished")
	}
	if len(events) == before {
		t.Log("no event fired — candidates may genuinely be unchanged; verifying via snapshot")
	}
	// Watch without enabling is an error on a fresh instance.
	c2 := MustNew(smallConfig(BasicBackend))
	if err := c2.RegisterUser(1, geom.Pt(5, 5), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.WatchNearest(1, privacyqp.PublicData); err == nil {
		t.Fatal("WatchNearest without EnableContinuous accepted")
	}
}

func TestOpenWithWALSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "core.wal")
	cfg := smallConfig(AdaptiveBackend)
	cfg.WALPath = path

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadPublicObjects([]server.PublicObject{
		{ID: 1, Pos: geom.Pt(100, 100), Name: "cafe"},
	})
	if err := c.RegisterUser(1, geom.Pt(200, 200), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterUser(2, geom.Pt(300, 300), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the server side recovers; the anonymizer is empty (no
	// exact positions were ever persisted), but stored cloaks still
	// serve public queries.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Users() != 0 {
		t.Fatalf("anonymizer users after restart = %d, want 0", c2.Users())
	}
	if c2.Server().PublicCount() != 1 || c2.Server().PrivateCount() != 2 {
		t.Fatalf("recovered public=%d private=%d",
			c2.Server().PublicCount(), c2.Server().PrivateCount())
	}
	n, err := c2.CountUsersIn(cfg.Universe, privacyqp.CountAnyOverlap)
	if err != nil || n != 2 {
		t.Fatalf("count over recovered cloaks = %v, %v", n, err)
	}
	// New registrations coexist with the recovered state.
	if err := c2.RegisterUser(3, geom.Pt(400, 400), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if c2.Server().PrivateCount() != 3 {
		t.Fatalf("private after new registration = %d", c2.Server().PrivateCount())
	}
}

func TestNewRespectsWALPath(t *testing.T) {
	cfg := smallConfig(BasicBackend)
	cfg.WALPath = filepath.Join(t.TempDir(), "durable.wal")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterUser(1, geom.Pt(5, 5), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.WALPath); err != nil {
		t.Fatalf("New ignored Config.WALPath: %v", err)
	}
	// MustNew panics when the WAL cannot be opened.
	bad := smallConfig(BasicBackend)
	bad.WALPath = filepath.Join(t.TempDir(), "no-such-dir", "x", "durable.wal")
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on an unopenable WAL path")
		}
	}()
	MustNew(bad)
}

func TestAddRemovePublicObject(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	populate(t, c, 30, 50, 11)
	var events int
	mon := c.EnableContinuous(func(e continuous.Event) { events++ })

	// Watch a user, then add a public object right next to them: the
	// standing query must pick it up.
	if err := c.RegisterUser(1000, geom.Pt(777, 777), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	wid, _, err := c.WatchNearest(1000, privacyqp.PublicData)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPublicObject(server.PublicObject{ID: 555, Pos: geom.Pt(778, 778), Name: "new"}); err != nil {
		t.Fatal(err)
	}
	cands, ok := mon.Candidates(wid)
	if !ok {
		t.Fatal("watch vanished")
	}
	found := false
	for _, it := range cands {
		if it.ID == 555 {
			found = true
		}
	}
	if !found {
		t.Fatal("standing NN query missed the new public object")
	}
	if c.Server().PublicCount() != 51 {
		t.Fatalf("public count = %d", c.Server().PublicCount())
	}
	// Duplicate add surfaces the error.
	if err := c.AddPublicObject(server.PublicObject{ID: 555, Pos: geom.Pt(1, 1)}); err == nil {
		t.Fatal("duplicate public add accepted")
	}
	// Remove it; the watch must drop it.
	if err := c.RemovePublicObject(555); err != nil {
		t.Fatal(err)
	}
	cands, _ = mon.Candidates(wid)
	for _, it := range cands {
		if it.ID == 555 {
			t.Fatal("removed object still in standing query")
		}
	}
	if err := c.RemovePublicObject(555); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestRangePublicBadInputs(t *testing.T) {
	c := MustNew(smallConfig(BasicBackend))
	if err := c.RegisterUser(1, geom.Pt(5, 5), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	c.LoadPublicObjects([]server.PublicObject{{ID: 1, Pos: geom.Pt(9, 9)}})
	if _, _, err := c.RangePublic(1, -5); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, _, err := c.RangePublic(99, 10); err == nil {
		t.Fatal("unknown user accepted")
	}
	if _, _, err := c.KNearestPublic(1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := c.KNearestPublic(1, 99); err == nil {
		t.Fatal("k beyond table accepted")
	}
}

func TestUserDensityGrid(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	populate(t, c, 200, 0, 12)
	grid, err := c.UserDensityGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, row := range grid {
		for _, v := range row {
			total += v
		}
	}
	if math.Abs(total-200) > 1e-6 {
		t.Fatalf("density mass = %v, want 200", total)
	}
	if _, err := c.UserDensityGrid(0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestWatchRangeFollowsUser(t *testing.T) {
	c := MustNew(smallConfig(AdaptiveBackend))
	populate(t, c, 80, 300, 13)
	mon := c.EnableContinuous(nil)
	_ = mon
	qid, cands, err := c.WatchRange(5, 800, privacyqp.PublicData)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no initial range candidates")
	}
	// Move across the map: the standing query follows the new cloak.
	if err := c.UpdateUser(5, geom.Pt(3900, 3900)); err != nil {
		t.Fatal(err)
	}
	after, ok := c.Monitor().Candidates(qid)
	if !ok {
		t.Fatal("watch vanished")
	}
	// Candidates now concentrate near the new location: every
	// candidate within 800m+cloak of the NE corner region.
	for _, it := range after {
		if it.Rect.Min.X < 1000 && it.Rect.Min.Y < 1000 {
			t.Fatalf("stale candidate at %v after move", it.Rect.Min)
		}
	}
	// Deregistration tears the watch down.
	if err := c.DeregisterUser(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Monitor().Candidates(qid); ok {
		t.Fatal("watch survived deregistration")
	}
	// Without monitoring enabled it errors.
	c2 := MustNew(smallConfig(BasicBackend))
	if err := c2.RegisterUser(1, geom.Pt(5, 5), anonymizer.Profile{K: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.WatchRange(1, 100, privacyqp.PublicData); err == nil {
		t.Fatal("WatchRange without EnableContinuous accepted")
	}
}
