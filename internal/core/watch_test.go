package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/geom"
	"casper/internal/mobgen"
	"casper/internal/privacyqp"
	"casper/internal/roadnet"
	"casper/internal/rtree"
	"casper/internal/server"
)

// cloakRecorder wraps a backend and remembers the last cloak it cut
// for each user: the region a watch registration or a stored update
// hands the monitor.
type cloakRecorder struct {
	anonymizer.Anonymizer
	last map[anonymizer.UserID]geom.Rect
}

func (r *cloakRecorder) Cloak(uid anonymizer.UserID) (anonymizer.CloakedRegion, error) {
	cr, err := r.Anonymizer.Cloak(uid)
	if err == nil {
		r.last[uid] = cr.Region
	}
	return cr, err
}

// TestWatchesMatchSnapshot checks the continuous monitor against the
// server's published tables on every backend. Over a seeded mobgen
// trace, after every UpdateUsers batch, each standing watch's
// candidate ID set must equal the one-shot answer at the cloak the
// monitor was last given — the fresh cloak at registration, then the
// stored cloak after each of the asker's updates: Server().NNPublic
// for public NN, Server().NNPrivate for buddies, and
// privacyqp.PrivateRange over the published private table with the
// asker hidden for radius watches. A new cloak inside the evaluated
// one keeps the list (SafeRegionHits advances) until the next
// re-evaluation, so the list may instead equal the one-shot answer at
// an earlier cloak containing the current one; it must then also stay
// inclusive at sampled points of the current cloak. The watch's events,
// folded into its registration answer, must give the same ID set as
// Candidates after every batch.
func TestWatchesMatchSnapshot(t *testing.T) {
	for _, kind := range []string{BasicBackend, AdaptiveBackend, ClusterBackend, GeoIndBackend} {
		t.Run(kind, func(t *testing.T) { runWatchesMatchSnapshot(t, kind) })
	}
}

func runWatchesMatchSnapshot(t *testing.T, kind string) {
	const nUsers, radius = 150, 300.0
	c := MustNew(smallConfig(kind))
	defer c.Close()
	rec := &cloakRecorder{Anonymizer: c.anon(), last: map[anonymizer.UserID]geom.Rect{}}
	c.backend.Store(&backendState{name: c.Backend(), anon: rec})

	u := c.Config().Universe
	gen := mobgen.New(roadnet.SyntheticHennepin(3, roadnet.SyntheticHennepinConfig{
		Extent: u.Width(), GridN: 8, ArterialEvery: 4, Jitter: 0.2,
	}), mobgen.DefaultConfig(nUsers, 17))
	rng := rand.New(rand.NewSource(17))
	for i, p := range gen.Positions() {
		prof := anonymizer.Profile{K: 1 + rng.Intn(min(i+1, 5))}
		if err := c.RegisterUser(anonymizer.UserID(p.ID), p.Pos, prof); err != nil {
			t.Fatal(err)
		}
	}
	objs := make([]server.PublicObject, 200)
	for i, p := range mobgen.UniformPoints(u, len(objs), 19) {
		objs[i] = server.PublicObject{ID: int64(i), Pos: p, Name: "poi"}
	}
	if err := c.LoadPublicObjects(objs); err != nil {
		t.Fatal(err)
	}
	// known is each watch's candidate ID set as its subscriber was told:
	// the registration answer, with every event folded in.
	known := map[continuous.QueryID]map[int64]bool{}
	var bad error
	mon := c.EnableContinuous(func(e continuous.Event) {
		if e.Kind == continuous.CandidatesChanged && bad == nil {
			bad = foldEvent(known[e.Query], e)
		}
	})

	// given lists the cloaks the monitor may have evaluated the watch
	// at: every cloak it was handed since the last one that lay inside
	// none of the earlier ones (that one it had to evaluate). The last
	// entry is the current cloak.
	type watch struct {
		qid   continuous.QueryID
		uid   anonymizer.UserID
		pid   int64
		kind  int // 0 public NN, 1 buddy, 2 radius
		given []geom.Rect
	}
	var watches []*watch
	byUID := map[anonymizer.UserID]*watch{}
	for i := 0; i < nUsers; i += 5 {
		w := &watch{uid: anonymizer.UserID(i), kind: i / 5 % 3}
		w.pid, _ = c.pseudo.Get(int64(w.uid))
		var cands []rtree.Item
		var err error
		switch w.kind {
		case 0:
			w.qid, cands, err = c.WatchNearest(w.uid, privacyqp.PublicData)
		case 1:
			w.qid, cands, err = c.WatchNearest(w.uid, privacyqp.PrivateData)
		default:
			w.qid, cands, err = c.WatchRange(w.uid, radius, privacyqp.PrivateData)
		}
		if err != nil {
			t.Fatal(err)
		}
		known[w.qid] = idSet(cands)
		w.given = []geom.Rect{rec.last[w.uid]}
		watches = append(watches, w)
		byUID[w.uid] = w
	}

	opt := c.Config().Query
	check := func(batch int) {
		t.Helper()
		if bad != nil {
			t.Fatalf("batch %d: %v", batch, bad)
		}
		pubAll := c.Server().PublicItems()
		priv := rtree.BulkLoad(c.Server().PrivateItems())
		for _, w := range watches {
			got, ok := mon.Candidates(w.qid)
			if !ok {
				t.Fatalf("batch %d: watch %d vanished", batch, w.qid)
			}
			gotIDs := idSet(got)
			if !sameIDs(gotIDs, known[w.qid]) {
				t.Fatalf("batch %d: watch %d holds %d candidates, its events fold to %d", batch, w.qid, len(gotIDs), len(known[w.qid]))
			}
			all := pubAll
			if w.kind != 0 {
				all = privacyqp.Without(priv, w.pid).All()
			}
			cur := w.given[len(w.given)-1]
			matched := false
			for _, at := range w.given {
				if !at.ContainsRect(cur) {
					continue
				}
				var want privacyqp.Result
				var err error
				switch w.kind {
				case 0:
					want, err = c.Server().NNPublic(at, opt)
				case 1:
					want, err = c.Server().NNPrivate(at, w.pid, opt)
				default:
					want, err = privacyqp.PrivateRange(privacyqp.Without(priv, w.pid), at, radius, privacyqp.PrivateData)
				}
				if err != nil {
					t.Fatalf("batch %d: watch %d: one-shot at %v: %v", batch, w.qid, at, err)
				}
				if matched = sameIDs(gotIDs, idSet(want.Candidates)); matched {
					break
				}
			}
			if !matched {
				t.Fatalf("batch %d: watch %d (kind %d): %d candidates match no one-shot answer at %v",
					batch, w.qid, w.kind, len(got), w.given)
			}
			if len(w.given) == 1 {
				continue
			}
			// The list may be kept from a larger cloak: it must stay
			// inclusive at sampled points of the current one. For NN,
			// no non-candidate may be surely nearer than the best
			// candidate's farthest point (Theorems 1 and 3).
			for _, p := range []geom.Point{cur.Center(), cur.Min, cur.Max, geom.Pt(cur.Min.X, cur.Max.Y), geom.Pt(cur.Max.X, cur.Min.Y)} {
				if w.kind == 2 {
					for _, it := range privacyqp.RefineRange(p, all, radius, privacyqp.PrivateData) {
						if !gotIDs[it.ID] {
							t.Fatalf("batch %d: watch %d: target %d within %v of %v missing", batch, w.qid, it.ID, radius, p)
						}
					}
					continue
				}
				best := math.Inf(1)
				for _, it := range got {
					best = math.Min(best, p.MaxDistRect(it.Rect))
				}
				for _, it := range all {
					if !gotIDs[it.ID] && p.MinDistRect(it.Rect) < best {
						t.Fatalf("batch %d: watch %d: non-candidate %d nearer to %v than every candidate", batch, w.qid, it.ID, p)
					}
				}
			}
		}
	}
	check(0)

	var hits, mayKeep int64
	buf := make([]mobgen.Update, 0, nUsers)
	for batch := 1; batch <= 30; batch++ {
		var ups []UserUpdate
		for _, m := range gen.StepInto(20, buf) {
			if rng.Intn(2) == 0 {
				ups = append(ups, UserUpdate{UID: anonymizer.UserID(m.ID), Pos: m.Pos})
			}
		}
		if n, err := c.UpdateUsers(ups); err != nil || n != len(ups) {
			t.Fatalf("batch %d: UpdateUsers applied %d of %d: %v", batch, n, len(ups), err)
		}
		for _, up := range ups {
			w := byUID[up.UID]
			if w == nil {
				continue
			}
			next := rec.last[up.UID]
			if next == w.given[len(w.given)-1] {
				continue
			}
			inside := false
			for _, at := range w.given {
				inside = inside || at.ContainsRect(next)
			}
			if inside {
				w.given = append(w.given, next)
				mayKeep++
			} else {
				w.given = []geom.Rect{next}
			}
		}
		if hits = mon.SafeRegionHits(); hits > mayKeep {
			t.Fatalf("batch %d: %d cloaks kept their list, at most %d lay inside an earlier one", batch, hits, mayKeep)
		}
		check(batch)
	}
	t.Logf("%s: %d watches, %d evaluations, %d of %d nested cloaks kept their list", kind, len(watches), mon.Evaluations(), hits, mayKeep)
}

// foldEvent folds a CandidatesChanged event into the candidate ID set
// its subscriber holds. It fails when the event is for no known watch,
// is empty, drops an ID the set lacks, or adds one the set holds.
func foldEvent(set map[int64]bool, e continuous.Event) error {
	switch {
	case set == nil:
		return fmt.Errorf("event for unknown watch %d", e.Query)
	case len(e.Added) == 0 && len(e.Dropped) == 0:
		return fmt.Errorf("watch %d notified of an unchanged candidate set", e.Query)
	}
	for _, id := range e.Dropped {
		if !set[id] {
			return fmt.Errorf("watch %d: event drops %d, which its subscriber does not hold", e.Query, id)
		}
		delete(set, id)
	}
	for _, it := range e.Added {
		if set[it.ID] {
			return fmt.Errorf("watch %d: event adds %d, which its subscriber holds", e.Query, it.ID)
		}
		set[it.ID] = true
	}
	return nil
}

func idSet(items []rtree.Item) map[int64]bool {
	s := make(map[int64]bool, len(items))
	for _, it := range items {
		s[it.ID] = true
	}
	return s
}

func sameIDs(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}
