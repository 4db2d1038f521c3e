// Package anonymizer implements Casper's location anonymizer: the
// trusted third party that receives exact location updates from mobile
// users and blurs each into a cloaked spatial region satisfying the
// user's privacy profile (k, Amin) before anything reaches the
// location-based database server (Sec. 4 of the paper).
//
// Four backends share one user table (table.go): the uid map and its
// lock, the profile checks and the lifecycle operations. A backend is
// only the spatial structure behind the table:
//
//   - Basic: a complete grid pyramid with a per-cell user counter at
//     every level (Sec. 4.1). Location updates propagate counter
//     changes to the root; cloaking always starts from the lowest
//     pyramid level.
//   - Adaptive: an incomplete pyramid maintained only down to the
//     levels that can actually serve some registered user's profile
//     (Sec. 4.2), with cell splitting and merging as profiles and
//     positions change. Cloaking starts from the lowest *maintained*
//     cell, usually eliminating the upward recursion entirely.
//   - Cluster: leaf-cell buckets searched ring by ring for the k
//     nearest users (group formation, for comparison).
//   - GeoInd: a planar Laplace sampler releasing perturbed points
//     (geo-indistinguishability, for comparison).
//
// Basic and Adaptive run the same bottom-up cloaking procedure
// (Algorithm 1), so they satisfy the paper's four requirements:
// accuracy (the region's population and area track k and Amin),
// quality (regions are grid-aligned and data-independent, so every
// point of a region is equally likely), efficiency, and flexibility
// (per-user profiles, changeable at any time).
//
// Every backend is safe for concurrent use: cloaking runs in parallel
// under the table's read lock, while registrations, location updates,
// and profile changes take its write lock.
package anonymizer

import (
	"errors"
	"fmt"

	"casper/internal/geom"
	"casper/internal/pyramid"
)

// UserID identifies a registered mobile user at the anonymizer. The
// ID never crosses the anonymizer boundary: cloaked regions are
// forwarded to the database server without identity (pseudonymity).
type UserID int64

// Profile is a user's privacy profile (Sec. 3): the user wants to be
// indistinguishable among at least K users, inside a region of area at
// least AMin. K=1 and AMin=0 mean no privacy requirement.
type Profile struct {
	// K is the k-anonymity requirement; at least 1 (the user herself).
	K int
	// AMin is the minimum acceptable area of the cloaked region, in
	// squared universe units.
	AMin float64
}

// Validate reports whether the profile is well-formed.
func (p Profile) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("anonymizer: profile k=%d, need k >= 1", p.K)
	}
	if p.AMin < 0 {
		return fmt.Errorf("anonymizer: profile Amin=%v, need Amin >= 0", p.AMin)
	}
	return nil
}

// Mechanism discriminates how a backend blurred a location. The query
// processor and the transmission-cost model dispatch on it: region
// mechanisms go through Algorithm 2 over the rectangle, perturbed
// mechanisms through the point-plus-radius candidate construction.
type Mechanism uint8

const (
	// MechRegion is a k-anonymous cloaked rectangle (the paper's
	// model): the exact position is somewhere inside Region, which is
	// sized so at least k registered users share it.
	MechRegion Mechanism = iota
	// MechPerturbed is a geo-indistinguishability release: Point is a
	// noisy location (planar Laplace), Radius the confidence radius of
	// the noise, and Region the Radius bounding box used for the
	// candidate-list path. No k-anonymity guarantee is implied.
	MechPerturbed
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	if m == MechPerturbed {
		return "perturbed"
	}
	return "region"
}

// CloakedRegion is the anonymizer's output for one user: a spatial
// region satisfying the user's profile. It intentionally carries no
// user identity.
type CloakedRegion struct {
	// Region is the cloaked spatial area. For pyramid backends it is
	// always a single cell or the rectangle formed by two neighboring
	// sibling cells, so it is axis-aligned and data-independent; the
	// cluster backend snaps its group bounding box outward to leaf-cell
	// boundaries for the same reason; for MechPerturbed it is the
	// confidence bounding box around Point.
	Region geom.Rect
	// Level is the pyramid level of the cell(s) forming the region,
	// or -1 for backends whose regions are not pyramid cells.
	Level int
	// KFound is the number of registered users inside Region at
	// cloaking time (k' in the paper's accuracy metric k'/k); zero for
	// MechPerturbed, which offers no population guarantee.
	KFound int
	// KRequested is the k the release was asked to satisfy: the
	// profile's K, after any backend-level floor (the cluster backend's
	// min-k). The privacy observatory compares it against KFound to
	// count k-violations; for MechPerturbed it sizes the ε_u = ε/k
	// budget split.
	KRequested int
	// StepsUp is the number of times the cloaking procedure had to
	// widen its scope before succeeding (parent-cell recursions for
	// Algorithm 1, ring expansions for the cluster backend); an
	// efficiency diagnostic.
	StepsUp int
	// Mechanism says whether this is a k-anonymous region or a
	// perturbed point; the zero value is MechRegion.
	Mechanism Mechanism
	// Point is the released noisy location (MechPerturbed only).
	Point geom.Point
	// Radius is the confidence radius around Point (MechPerturbed
	// only): the true position is within Radius of Point with the
	// backend's configured confidence.
	Radius float64
	// Epsilon is the per-user privacy budget that produced the noise
	// (MechPerturbed only); a diagnostic for the comparison harness.
	Epsilon float64
}

// Errors returned by anonymizer operations.
var (
	ErrUnknownUser   = errors.New("anonymizer: unknown user")
	ErrDuplicateUser = errors.New("anonymizer: user already registered")
	// ErrUnsatisfiable is returned when no region — not even the whole
	// universe — can satisfy the profile (k exceeds the registered
	// population or Amin exceeds the universe area).
	ErrUnsatisfiable = errors.New("anonymizer: privacy profile unsatisfiable")
)

// Anonymizer is the contract every privacy backend implements.
// Backends are constructed by name through the registry (see
// registry.go); four are built in: the complete-pyramid "basic" and
// incomplete-pyramid "adaptive" anonymizers, the group-formation
// "cluster" backend, and the geo-indistinguishability "geoind"
// backend. A backend blurs via either mechanism — see
// CloakedRegion.Mechanism.
type Anonymizer interface {
	// Name returns the backend's registry name ("basic", "adaptive",
	// "cluster", "geoind", ...); it labels metrics, trace spans, and
	// the stats surface.
	Name() string
	// Register adds a user at position p with the given profile.
	Register(uid UserID, p geom.Point, prof Profile) error
	// Deregister removes a user.
	Deregister(uid UserID) error
	// Update processes a location update (uid, x, y).
	Update(uid UserID, p geom.Point) error
	// SetProfile changes a user's privacy profile in place
	// (flexibility requirement, Sec. 4).
	SetProfile(uid UserID, prof Profile) error
	// Cloak blurs the user's current exact position into a cloaked
	// region satisfying their profile.
	Cloak(uid UserID) (CloakedRegion, error)
	// CloakAt cloaks an arbitrary point under a given profile without
	// registering it; used for query regions of one-shot private
	// queries.
	CloakAt(p geom.Point, prof Profile) (CloakedRegion, error)
	// Users returns the number of registered users.
	Users() int
	// Position returns a user's stored exact position. Only the
	// anonymizer side (the trusted party) may call this.
	Position(uid UserID) (geom.Point, error)
	// Grid exposes the pyramid geometry in use.
	Grid() pyramid.Grid
	// UpdateCost returns the cumulative number of cell-counter writes
	// (plus, for the adaptive anonymizer, split/merge redistribution
	// work), the cost metric of Figures 10b, 11b, 12b.
	UpdateCost() int64
	// ResetUpdateCost zeroes the accounting.
	ResetUpdateCost()
	// ForEachUser visits every registered user with their exact
	// position and profile. Only the anonymizer side (the trusted
	// party) may call this; it exists so one backend can hand its
	// population to another when the operator switches backends at
	// runtime. Iteration order is unspecified; fn returning false
	// stops the walk. The walk holds the backend's read lock, so fn
	// sees a consistent population and must not mutate the backend.
	ForEachUser(fn func(UserID, geom.Point, Profile) bool)
}

// CloakOpts controls Algorithm 1 ablations used by the experiment
// harness.
type CloakOpts struct {
	// DisableNeighborMerge turns off lines 5-13 of Algorithm 1 (the
	// horizontal/vertical sibling combination), so the algorithm
	// always climbs to the parent instead. Used to quantify how much
	// the neighbor step buys in accuracy.
	DisableNeighborMerge bool
}

// bottomUpCloak is Algorithm 1 of the paper over the complete pyramid:
// starting from cell start, return the cell if it satisfies (k, Amin);
// otherwise try combining it with its horizontal or vertical sibling
// neighbor (neighborMerge); otherwise recurse on the parent. The loop
// form below is the tail-recursive algorithm unrolled. The caller
// holds a lock that excludes writers of pyr and has validated prof.
func bottomUpCloak(pyr *pyramid.Complete, g pyramid.Grid, start pyramid.CellID, prof Profile, opts CloakOpts) (CloakedRegion, error) {
	steps := 0
	for cid := start; ; cid = cid.Parent() {
		n := pyr.Count(cid)
		area := g.CellArea(cid.Level)
		if n >= prof.K && area >= prof.AMin {
			return CloakedRegion{
				Region:     g.CellRect(cid),
				Level:      cid.Level,
				KFound:     n,
				KRequested: prof.K,
				StepsUp:    steps,
			}, nil
		}
		if cid.IsRoot() {
			return CloakedRegion{}, unsatisfiable(prof, n, area)
		}
		if !opts.DisableNeighborMerge {
			cidH, _ := cid.HorizontalNeighbor()
			cidV, _ := cid.VerticalNeighbor()
			nH, nV := n+pyr.Count(cidH), n+pyr.Count(cidV)
			if horizontal, ok := neighborMerge(nH, nV, area, prof); ok {
				with, kFound := cidV, nV
				if horizontal {
					with, kFound = cidH, nH
				}
				return CloakedRegion{
					Region:     g.CellRect(cid).Union(g.CellRect(with)),
					Level:      cid.Level,
					KFound:     kFound,
					KRequested: prof.K,
					StepsUp:    steps,
				}, nil
			}
		}
		steps++
	}
}

// neighborMerge is the neighbor step of Algorithm 1 (lines 5-13): a
// cell of the given area failed prof on its own, and nH / nV are its
// population combined with its horizontal / vertical sibling neighbor.
// ok reports whether either combination satisfies prof; horizontal
// says which one to publish — the one whose population is closer to k
// (when both reach k the smaller, ties going to the horizontal pair;
// otherwise the one that reaches k).
func neighborMerge(nH, nV int, area float64, prof Profile) (horizontal, ok bool) {
	if (nV >= prof.K || nH >= prof.K) && 2*area >= prof.AMin {
		return (nH >= prof.K && nV >= prof.K && nH <= nV) || nV < prof.K, true
	}
	return false, false
}

// unsatisfiable is the error of a pyramid cloak that reached the root:
// even the whole universe (population n, the given area) fails prof.
func unsatisfiable(prof Profile, n int, area float64) error {
	return fmt.Errorf("%w: k=%d Amin=%v (population %d, universe area %v)",
		ErrUnsatisfiable, prof.K, prof.AMin, n, area)
}
