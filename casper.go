// Package casper is the public API of this reproduction of
// "The New Casper: Query Processing for Location Services without
// Compromising Privacy" (Mokbel, Chow, Aref — VLDB 2006).
//
// Casper lets mobile users consume location-based services without
// revealing their locations. A trusted location anonymizer blurs each
// exact position into a cloaked region satisfying the user's privacy
// profile (k, Amin); a privacy-aware query processor embedded in the
// location-based database server answers nearest-neighbor and range
// queries over those regions, returning candidate lists that provably
// contain the exact answer and are of minimal size.
//
// # Quick start
//
//	c := casper.MustNew(casper.DefaultConfig())
//	c.LoadPublicObjects([]casper.PublicObject{
//		{ID: 1, Pos: casper.Pt(120, 80), Name: "gas station"},
//	})
//	_ = c.RegisterUser(42, casper.Pt(100, 100), casper.Profile{K: 1})
//	ans, _ := c.NearestPublic(42)
//	fmt.Println(ans.Exact.Data) // "gas station" — found without the
//	                            // server ever seeing (100, 100)
//
// # Concurrency
//
// A Casper instance is safe for concurrent use. Queries
// (NearestPublic, NearestBuddy, KNearestPublic, RangePublic,
// CountUsersIn, UserDensityGrid) run in parallel with each other;
// mutations (RegisterUser, UpdateUser, SetProfile, DeregisterUser,
// public-table edits) serialize only against operations touching the
// same internal structure. The protocol server exploits this: requests
// from different client connections are processed concurrently. See
// the "Concurrency model" section of DESIGN.md for the locking
// architecture.
//
// # Errors
//
// Failures carry exported sentinel errors — ErrNotRegistered,
// ErrAlreadyRegistered, ErrMonitorDisabled, ErrEmptyCandidates,
// ErrNoBuddies, ErrUnsatisfiable — which errors.Is recognizes both
// in-process and through a ProtocolClient round trip (the wire
// protocol transports a stable error code alongside the message).
//
// The package re-exports the framework types from the internal
// implementation packages; see DESIGN.md for the architecture map and
// EXPERIMENTS.md for the reproduction of the paper's evaluation.
package casper

import (
	"context"

	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/core"
	"casper/internal/geo"
	"casper/internal/geom"
	"casper/internal/mobgen"
	"casper/internal/privacyqp"
	"casper/internal/protocol"
	"casper/internal/roadnet"
	"casper/internal/server"
)

// Re-exported geometry types. A Point is an exact location (meters);
// a Rect is a cloaked spatial region.
type (
	// Point is a 2-D location.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (a cloaked region).
	Rect = geom.Rect
)

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R builds a Rect from two corners, normalizing their order.
func R(x0, y0, x1, y1 float64) Rect { return geom.R(x0, y0, x1, y1) }

// Identity and privacy types.
type (
	// UserID identifies a registered mobile user. The ID never
	// reaches the database server (pseudonymity).
	UserID = anonymizer.UserID
	// Profile is the user privacy profile (k, Amin): be
	// indistinguishable among at least K users, within a region of
	// area at least AMin.
	Profile = anonymizer.Profile
	// CloakedRegion is the anonymizer's output for one user.
	CloakedRegion = anonymizer.CloakedRegion
)

// Framework types.
type (
	// Casper is a running framework instance: location anonymizer +
	// privacy-aware database server.
	Casper = core.Casper
	// Config parameterizes a deployment.
	Config = core.Config
	// Mechanism says how a cloaked release blurs the location: a
	// k-anonymous region or a perturbed point.
	Mechanism = anonymizer.Mechanism
	// TransmissionModel is the candidate-list downlink model.
	TransmissionModel = core.TransmissionModel
	// Breakdown is the per-query end-to-end cost decomposition.
	Breakdown = core.Breakdown
	// NNAnswer is a nearest-neighbor query outcome.
	NNAnswer = core.NNAnswer
	// UserUpdate is one entry of a batched UpdateUsers call.
	UserUpdate = core.UserUpdate
	// PublicObject is an exact-location object in the public table.
	PublicObject = server.PublicObject
	// PrivateObject is a pseudonymous cloaked object.
	PrivateObject = server.PrivateObject
	// QueryOptions tunes the privacy-aware query processor.
	QueryOptions = privacyqp.Options
	// CountPolicy decides how cloaked objects are counted by public
	// range queries.
	CountPolicy = privacyqp.CountPolicy
)

// Privacy backends, selectable via Config.Backend. The full list at
// runtime (including backends registered by embedding programs) is
// Backends().
const (
	// BasicBackend uses the complete pyramid (Sec. 4.1).
	BasicBackend = core.BasicBackend
	// AdaptiveBackend uses the incomplete pyramid (Sec. 4.2).
	AdaptiveBackend = core.AdaptiveBackend
	// ClusterBackend forms groups of the k nearest registered users.
	ClusterBackend = core.ClusterBackend
	// GeoIndBackend releases planar-Laplace perturbed points
	// (geo-indistinguishability).
	GeoIndBackend = core.GeoIndBackend
)

// Cloaking mechanisms a backend may release (CloakedRegion.Mechanism).
const (
	// MechRegion is a k-anonymous rectangle (basic/adaptive/cluster).
	MechRegion = anonymizer.MechRegion
	// MechPerturbed is a noisy point plus confidence radius (geoind).
	MechPerturbed = anonymizer.MechPerturbed
)

// Backends lists the registered privacy-backend names, sorted.
func Backends() []string { return anonymizer.Backends() }

// Count policies for public queries over private data.
const (
	// CountAnyOverlap counts any cloak overlapping the region.
	CountAnyOverlap = privacyqp.CountAnyOverlap
	// CountCenterIn counts cloaks whose center is inside.
	CountCenterIn = privacyqp.CountCenterIn
	// CountFractional sums overlap fractions (expected count).
	CountFractional = privacyqp.CountFractional
)

// Continuous-query types (see internal/continuous): a SINA-style
// incremental monitor for standing range-count and nearest-neighbor
// queries over the moving, cloaked population.
type (
	// ContinuousMonitor maintains standing queries incrementally.
	ContinuousMonitor = continuous.Monitor
	// ContinuousEvent is a change notification for a standing query:
	// a range count's new value, or the change to an NN or radius
	// query's candidate list (the candidates added and the IDs
	// dropped). The full list comes from the Watch* call that
	// registered the query, and from ContinuousMonitor.Candidates.
	ContinuousEvent = continuous.Event
	// ContinuousQueryID identifies a standing query.
	ContinuousQueryID = continuous.QueryID
)

// Continuous event kinds.
const (
	// CountChanged reports a new range-count value.
	CountChanged = continuous.CountChanged
	// CandidatesChanged reports a change to a candidate list.
	CandidatesChanged = continuous.CandidatesChanged
)

// Data kinds for queries that can target either table.
const (
	// PublicData targets exact public objects.
	PublicData = privacyqp.PublicData
	// PrivateData targets cloaked user regions.
	PrivateData = privacyqp.PrivateData
)

// Sentinel errors, re-exported from the framework core and anonymizer.
// Test with errors.Is; they survive a ProtocolClient round trip.
var (
	// ErrAlreadyRegistered reports RegisterUser of an existing ID.
	ErrAlreadyRegistered = core.ErrAlreadyRegistered
	// ErrNotRegistered reports an operation on an unknown user ID.
	ErrNotRegistered = core.ErrNotRegistered
	// ErrMonitorDisabled reports Watch* before EnableContinuous.
	ErrMonitorDisabled = core.ErrMonitorDisabled
	// ErrEmptyCandidates reports a private query with no candidates.
	ErrEmptyCandidates = core.ErrEmptyCandidates
	// ErrNoBuddies reports a buddy query with no other users.
	ErrNoBuddies = core.ErrNoBuddies
	// ErrUnsatisfiable reports a privacy profile no region can satisfy.
	ErrUnsatisfiable = anonymizer.ErrUnsatisfiable
)

// New builds a Casper instance, recovering the database server from
// Config.WALPath when that is set. Close it to flush the log.
func New(cfg Config) (*Casper, error) { return core.New(cfg) }

// MustNew is New for configurations that cannot fail (no WALPath);
// it panics on error. Convenient for examples and tests.
func MustNew(cfg Config) *Casper { return core.MustNew(cfg) }

// DefaultConfig mirrors the paper's experimental setup: a
// 40 km x 40 km universe, a 9-level pyramid, the adaptive anonymizer,
// four query filters, and a 100 Mbps / 64-byte-record downlink.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultQueryOptions is the paper's full Algorithm 2 (four filters).
func DefaultQueryOptions() QueryOptions { return privacyqp.DefaultOptions() }

// Protocol types, for deploying the anonymizer as a real third party
// over TCP (see cmd/casperd and cmd/casperctl).
type (
	// ProtocolServer serves the Casper wire protocol.
	ProtocolServer = protocol.Server
	// ProtocolClient is a client connection to a ProtocolServer.
	ProtocolClient = protocol.Client
	// ProtocolRect is the wire form of a rectangle.
	ProtocolRect = protocol.Rect
	// WireError is an application error received over the protocol;
	// errors.Is sees through it to the sentinel it transports.
	WireError = protocol.WireError
	// ProtocolDialOption configures DialProtocolContext.
	ProtocolDialOption = protocol.DialOption
)

// Dial options, re-exported from internal/protocol.
var (
	// WithDialTimeout bounds connection establishment and the
	// handshake.
	WithDialTimeout = protocol.WithDialTimeout
	// WithMaxInFlight caps concurrent in-flight requests on one
	// connection.
	WithMaxInFlight = protocol.WithMaxInFlight
	// WithTLSConfig dials the server over TLS (set Certificates for
	// mutual TLS); nil leaves the connection plaintext.
	WithTLSConfig = protocol.WithTLSConfig
)

// ErrOverloaded reports a request shed by the server's admission
// control (per-user rate limit or global in-flight ceiling) before any
// work happened. It is retryable — back off briefly and resend.
// Travels as the wire-stable "overloaded" code, so
// errors.Is(err, casper.ErrOverloaded) holds across a ProtocolClient
// round trip.
var ErrOverloaded = protocol.ErrOverloaded

// ErrResponseTooLarge reports that the answer to a request would not
// fit in one wire frame (1 MiB): a density map finer than 361 x 361,
// or a range query matching tens of thousands of objects.
// Only that request fails — the connection and every other request in
// flight on it carry on — and asking for less succeeds. Travels as the
// wire-stable "response_too_large" code.
var ErrResponseTooLarge = protocol.ErrResponseTooLarge

// ErrBudgetExhausted reports a cloak refused because the user's
// cumulative ε spend reached the per-user budget ceiling (casperd
// -epsilon-budget, hot-reloadable as epsilon_budget). Travels as the
// wire-stable "budget_exhausted" code, so
// errors.Is(err, casper.ErrBudgetExhausted) holds across a
// ProtocolClient round trip. Requests succeed again once an operator
// raises or clears the ceiling.
var ErrBudgetExhausted = core.ErrBudgetExhausted

// NewProtocolServer wraps a framework instance for network serving.
func NewProtocolServer(c *Casper) *ProtocolServer { return protocol.NewServer(c) }

// DialProtocolContext connects to a running casperd. The context
// bounds connection establishment and the protocol handshake; options
// set the dial timeout, the in-flight cap and TLS.
func DialProtocolContext(ctx context.Context, addr string, opts ...ProtocolDialOption) (*ProtocolClient, error) {
	return protocol.DialContext(ctx, addr, opts...)
}

// Workload generation, re-exported for examples and downstream
// benchmarks.
type (
	// RoadNetwork is a road graph for the moving-object generator.
	RoadNetwork = roadnet.Graph
	// MovingObjects is a Brinkhoff-style network-based moving-object
	// generator.
	MovingObjects = mobgen.Generator
	// LocationUpdate is one generated (id, position) report.
	LocationUpdate = mobgen.Update
)

// GeoProjection converts WGS84 latitude/longitude to the local meter
// coordinates Casper computes in (equirectangular around an origin;
// county-scale accuracy).
type GeoProjection = geo.Projection

// NewGeoProjection anchors a projection at a geodetic origin.
func NewGeoProjection(originLat, originLon float64) (GeoProjection, error) {
	return geo.NewProjection(originLat, originLon)
}

// HennepinProjection returns the projection and local bounding box of
// Hennepin County, MN — the map the paper's evaluation uses.
func HennepinProjection() (GeoProjection, Rect) { return geo.Hennepin() }

// SyntheticHennepin builds the synthetic county road network used in
// place of the paper's Hennepin County map (see DESIGN.md §3).
func SyntheticHennepin(seed int64) *RoadNetwork {
	return roadnet.SyntheticHennepin(seed, roadnet.DefaultHennepinConfig())
}

// NewMovingObjects simulates n objects moving on the network.
func NewMovingObjects(g *RoadNetwork, n int, seed int64) *MovingObjects {
	return mobgen.New(g, mobgen.DefaultConfig(n, seed))
}

// UniformTargets places n public target objects uniformly in r (the
// paper's target placement).
func UniformTargets(r Rect, n int, seed int64) []PublicObject {
	pts := mobgen.UniformPoints(r, n, seed)
	objs := make([]PublicObject, n)
	for i, p := range pts {
		objs[i] = PublicObject{ID: int64(i), Pos: p, Name: "target"}
	}
	return objs
}
