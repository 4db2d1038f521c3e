package core

import (
	"slices"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/privacyqp/privacyqptest"
	"casper/internal/rtree"
)

// TestServingPathRunsDefaultAlgorithm2: every private NN query and
// watch registration runs the paper's Algorithm 2 with four filters.
// A buddy list and a k-NN list (its length; the client only gets the
// refined answer) must equal privacyqp with DefaultOptions at the cloak
// the query was given, and the one-filter list must differ for some
// users of each kind, so the comparison can tell the two apart. A
// public NN list, one-shot or standing, is exact and so independent of
// the filters: it must equal the brute-force Voronoi reference
// (privacyqptest.ExactNN) over the whole public table, and be strictly
// shorter than the four-filter list for some users.
func TestServingPathRunsDefaultAlgorithm2(t *testing.T) {
	const nUsers, k = 60, 3
	c := MustNew(smallConfig(AdaptiveBackend))
	defer c.Close()
	rec := &cloakRecorder{Anonymizer: c.anon(), last: map[anonymizer.UserID]geom.Rect{}}
	c.backend.Store(&backendState{name: c.Backend(), anon: rec})
	populate(t, c, nUsers, 300, 41)
	c.EnableContinuous(nil)

	pubItems := c.Server().PublicItems()
	pub := rtree.BulkLoad(slices.Clone(pubItems))
	four, one := privacyqp.DefaultOptions(), privacyqp.Options{Filters: 1}
	eval := func(name string, opt privacyqp.Options, f func(privacyqp.Options) (privacyqp.Result, error)) privacyqp.Result {
		t.Helper()
		res, err := f(opt)
		if err != nil {
			t.Fatalf("%s with %d filters: %v", name, opt.Filters, err)
		}
		return res
	}
	differs := map[string]int{}
	for i := 0; i < nUsers; i++ {
		uid := anonymizer.UserID(i)
		nn, err := c.NearestPublic(uid)
		if err != nil {
			t.Fatal(err)
		}
		at := rec.last[uid]
		nnAt := func(opt privacyqp.Options) (privacyqp.Result, error) {
			return privacyqp.PrivateNN(pub, at, privacyqp.PublicData, opt)
		}
		if want := privacyqptest.ExactNN(pubItems, at); !sameIDs(idSet(nn.Candidates), want) {
			t.Errorf("user %d: NearestPublic sent %d candidates, the exact list has %d", i, len(nn.Candidates), len(want))
		}
		if len(nn.Candidates) < len(eval("nn_public", four, nnAt).Candidates) {
			differs["nn_public"]++
		}

		qid, cands, err := c.WatchNearest(uid, privacyqp.PublicData)
		if err != nil {
			t.Fatal(err)
		}
		at = rec.last[uid]
		if want := privacyqptest.ExactNN(pubItems, at); !sameIDs(idSet(cands), want) {
			t.Errorf("user %d: WatchNearest registered %d candidates, the exact list has %d", i, len(cands), len(want))
		}
		if len(cands) < len(eval("watch_nn", four, nnAt).Candidates) {
			differs["watch_nn"]++
		}
		c.Unwatch(uid, qid)

		buddy, err := c.NearestBuddy(uid)
		if err != nil {
			t.Fatal(err)
		}
		// A query stores the cloak it was given, so the private table
		// is read after it.
		at = rec.last[uid]
		pid := pidOf(t, c, uid)
		buddies := privacyqp.Without(rtree.BulkLoad(c.Server().PrivateItems()), pid)
		buddyAt := func(opt privacyqp.Options) (privacyqp.Result, error) {
			return privacyqp.PrivateNN(buddies, at, privacyqp.PrivateData, opt)
		}
		if want := eval("nn_buddy", four, buddyAt); !sameIDs(idSet(buddy.Candidates), idSet(want.Candidates)) {
			t.Errorf("user %d: NearestBuddy sent %d candidates, Algorithm 2 gives %d", i, len(buddy.Candidates), len(want.Candidates))
		}
		if !sameIDs(idSet(buddy.Candidates), idSet(eval("nn_buddy", one, buddyAt).Candidates)) {
			differs["nn_buddy"]++
		}

		_, bd, err := c.KNearestPublic(uid, k)
		if err != nil {
			t.Fatal(err)
		}
		at = rec.last[uid]
		knnAt := func(opt privacyqp.Options) (privacyqp.Result, error) {
			return privacyqp.PrivateKNN(pub, at, k, privacyqp.PublicData, opt)
		}
		if want := eval("knn_public", four, knnAt); bd.Candidates != len(want.Candidates) {
			t.Errorf("user %d: KNearestPublic sent %d candidates, Algorithm 2 gives %d", i, bd.Candidates, len(want.Candidates))
		}
		if bd.Candidates != len(eval("knn_public", one, knnAt).Candidates) {
			differs["knn_public"]++
		}
	}
	for _, kind := range []string{"nn_public", "watch_nn"} {
		if differs[kind] == 0 {
			t.Errorf("%s: no user's exact list is shorter than Algorithm 2's, so the check cannot tell them apart", kind)
		}
	}
	for _, kind := range []string{"nn_buddy", "knn_public"} {
		if differs[kind] == 0 {
			t.Errorf("%s: no user's list differs between 4 filters and 1, so the check cannot tell them apart", kind)
		}
	}
}

// TestReloadBackendZeroEpsilonIsDefault: epsilon 0 in ReloadBackend
// means anonymizer.DefaultEpsilon, as in anonymizer.BackendConfig,
// whether the live backend takes it in place or a switch builds a new
// one.
func TestReloadBackendZeroEpsilonIsDefault(t *testing.T) {
	epsilon := func(c *Casper) float64 {
		return c.Anonymizer().(interface{ Epsilon() float64 }).Epsilon()
	}
	live := MustNew(smallConfig(GeoIndBackend))
	defer live.Close()
	if err := live.ReloadBackend(GeoIndBackend, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if got := epsilon(live); got != 0.5 {
		t.Fatalf("epsilon after reloading 0.5 = %v", got)
	}
	if err := live.ReloadBackend(GeoIndBackend, 0, 1); err != nil {
		t.Fatal(err)
	}
	switched := MustNew(smallConfig(AdaptiveBackend))
	defer switched.Close()
	if err := switched.ReloadBackend(GeoIndBackend, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got, sw := epsilon(live), epsilon(switched); got != anonymizer.DefaultEpsilon || sw != anonymizer.DefaultEpsilon {
		t.Errorf("epsilon 0: live backend %v, switched-to backend %v; want DefaultEpsilon %v for both",
			got, sw, anonymizer.DefaultEpsilon)
	}
}
