package privacyqp

import (
	"casper/internal/geom"
	"casper/internal/rtree"
)

// This file implements the two naive extremes of Figure 4 in the
// paper, used as baselines in the ablation experiments:
//
//   - NaiveCenterNN ("approach 1"): the server pretends the user sits
//     at the center of the cloaked area and returns that single
//     nearest target. Minimum transmission, but the answer can simply
//     be wrong.
//   - NaiveAll ("approach 2"): the server ships every target object to
//     the client, which evaluates the query locally. Always exact, but
//     the transmission cost is the whole database.
//
// Casper's candidate list sits between the two: exact like NaiveAll,
// nearly as cheap as NaiveCenterNN.

// NaiveCenterNN returns the single target nearest to the center of the
// cloaked area. ok is false on an empty database.
func NaiveCenterNN(db SpatialIndex, cloak geom.Rect, kind DataKind) (rtree.Item, bool) {
	nbs := db.NearestKInto(cloak.Center(), 1, metricFor(kind), nil, nil)
	if len(nbs) == 0 {
		return rtree.Item{}, false
	}
	return nbs[0].Item, true
}

// NaiveAll returns every target in the database — the full-shipping
// extreme.
func NaiveAll(db SpatialIndex) []rtree.Item { return db.All() }
