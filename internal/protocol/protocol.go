// Package protocol turns the in-process Casper framework into the
// deployed architecture of Fig. 1: mobile clients speak to the
// location anonymizer over TCP, and only the anonymizer speaks to the
// location-based database server. Requests and responses travel as
// length-prefixed binary frames tagged with request ids, so one
// connection pipelines many requests (frame.go, binary.go). The JSON
// tags on the message types serve `casperctl raw`, which transcodes a
// hand-written JSON request onto the wire and prints the response as
// JSON.
//
// The trust boundary is the whole point: exact coordinates appear only
// in client->anonymizer requests; everything the anonymizer forwards
// inward is a (pseudonym, cloaked rectangle) pair, and everything that
// flows back out is a candidate list.
package protocol

import (
	"fmt"

	"casper/internal/geom"
)

// Op names for Request.Op.
const (
	// OpRegister registers a mobile user: exact position + profile.
	OpRegister = "register"
	// OpUpdate is a location update (uid, x, y).
	OpUpdate = "update"
	// OpUpdateBatch carries many location updates in one frame (fleet
	// clients) and applies them through the framework's batched update
	// path: one server write lock and one WAL record for the whole
	// frame. Response.Count reports how many were applied; the first
	// failure aborts the rest.
	OpUpdateBatch = "update_batch"
	// OpDeregister removes a user.
	OpDeregister = "deregister"
	// OpSetProfile changes a user's privacy profile.
	OpSetProfile = "set_profile"
	// OpNearestPublic is a private NN query over public data.
	OpNearestPublic = "nn_public"
	// OpNearestBuddy is a private NN query over private data.
	OpNearestBuddy = "nn_buddy"
	// OpKNearestPublic is a private k-NN query over public data; the
	// neighbor count travels in Request.NN.
	OpKNearestPublic = "knn_public"
	// OpRangePublic is a private range query over public data.
	OpRangePublic = "range_public"
	// OpCountUsers is a public (administrator) count query over
	// private data. It does not pass through the anonymizer path.
	OpCountUsers = "count_users"
	// OpAddPublic registers a public object (exact location, no
	// anonymity).
	OpAddPublic = "add_public"
	// OpDensity is the administrator density-map query over private
	// data; Request.NN carries the grid resolution.
	OpDensity = "density"
	// OpStats reports server statistics.
	OpStats = "stats"
)

// Request is one client frame.
type Request struct {
	Op     string        `json:"op"`
	UserID int64         `json:"uid,omitempty"`
	X      float64       `json:"x,omitempty"`
	Y      float64       `json:"y,omitempty"`
	K      int           `json:"k,omitempty"`
	NN     int           `json:"nn,omitempty"`
	AMin   float64       `json:"amin,omitempty"`
	Radius float64       `json:"radius,omitempty"`
	Rect   *Rect         `json:"rect,omitempty"`
	Batch  []BatchUpdate `json:"batch,omitempty"`
	Policy string        `json:"policy,omitempty"` // any-overlap | center-in | fractional
	Name   string        `json:"name,omitempty"`
	PubID  int64         `json:"pub_id,omitempty"`
	// TraceID, when set, is echoed in the response and names the
	// server-side trace of this request (see internal/trace); when
	// empty, the server generates one. Long IDs are truncated
	// server-side.
	TraceID string `json:"trace_id,omitempty"`
}

// BatchUpdate is one entry of an OpUpdateBatch frame.
type BatchUpdate struct {
	UserID int64   `json:"uid"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
}

// Rect is the wire form of a rectangle.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// ToGeom converts to the internal representation.
func (r Rect) ToGeom() geom.Rect { return geom.R(r.MinX, r.MinY, r.MaxX, r.MaxY) }

// FromGeom converts from the internal representation.
func FromGeom(r geom.Rect) Rect {
	return Rect{MinX: r.Min.X, MinY: r.Min.Y, MaxX: r.Max.X, MaxY: r.Max.Y}
}

// Object is a candidate-list entry on the wire: a public point target
// (degenerate rect) or a private cloaked region. Pseudonymous IDs for
// private data, real object IDs for public data.
type Object struct {
	ID   int64  `json:"id"`
	Rect Rect   `json:"rect"`
	Name string `json:"name,omitempty"`
}

// Cost is the wire form of the end-to-end breakdown (nanoseconds).
type Cost struct {
	CloakNS    int64 `json:"cloak_ns"`
	QueryNS    int64 `json:"query_ns"`
	TransmitNS int64 `json:"transmit_ns"`
	Candidates int   `json:"candidates"`
}

// Stats reports deployment-wide counters.
type Stats struct {
	Users      int   `json:"users"`
	PublicObjs int   `json:"public_objects"`
	Queries    int64 `json:"queries"`
	UpdateCost int64 `json:"update_cost"`
	// Backend names the active privacy backend ("" from servers
	// predating backend selection).
	Backend string `json:"backend,omitempty"`
	// Continuous reports the continuous-query monitor; nil when the
	// monitor is disabled (or the server predates it).
	Continuous *ContinuousStats `json:"continuous,omitempty"`
	// Privacy reports the privacy observatory's aggregates; nil from
	// servers predating it. The full per-backend distribution lives on
	// /debug/privacy — the wire carries only the headline numbers.
	Privacy *PrivacyStats `json:"privacy,omitempty"`
}

// ContinuousStats is the continuous monitor's block of Stats: the
// standing-query population and the incremental-maintenance counters
// (evaluations/updates is the ratio to watch; safe-region hits are
// cloak moves absorbed without re-evaluating).
type ContinuousStats struct {
	Queries        int   `json:"queries"`
	Updates        int64 `json:"updates"`
	Evaluations    int64 `json:"evaluations"`
	SafeRegionHits int64 `json:"safe_region_hits"`
}

// PrivacyStats is the privacy observatory's block of Stats: the
// aggregate release accounting, the windowed anonymity-set entropy,
// the online linkage estimate, the ε-budget ledger, and the SLO
// verdict. See internal/privacyobs for the semantics of each number.
type PrivacyStats struct {
	Releases           int64   `json:"releases"`
	KViolations        int64   `json:"k_violations"`
	KSatisfiedFraction float64 `json:"k_satisfied_fraction"`
	EntropyMeanBits    float64 `json:"entropy_mean_bits"`
	EntropyMinBits     float64 `json:"entropy_min_bits"`
	Linkage            float64 `json:"linkage"`
	EpsilonSpent       float64 `json:"epsilon_spent"`
	EpsilonMaxUser     float64 `json:"epsilon_max_user"`
	EpsilonBudget      float64 `json:"epsilon_budget"`
	BudgetExhausted    int64   `json:"budget_exhausted"`
	SLOOK              bool    `json:"slo_ok"`
}

// Response is one server frame.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the stable wire error code for application errors ("" for
	// transport-level problems like malformed frames); see errors.go.
	Code       string   `json:"code,omitempty"`
	Exact      *Object  `json:"exact,omitempty"`
	Candidates []Object `json:"candidates,omitempty"`
	Count      float64  `json:"count,omitempty"`
	Cost       *Cost    `json:"cost,omitempty"`
	Stats      *Stats   `json:"stats,omitempty"`
	// Density is the row-major n x n expected-count grid returned by
	// OpDensity ([0] is the bottom row).
	Density [][]float64 `json:"density,omitempty"`
	// TraceID names the server-side trace of this request: the
	// client's correlation ID when one was sent, otherwise the
	// server-generated one. Look it up at /debug/traces?id=.
	TraceID string `json:"trace_id,omitempty"`
}

// errResponse builds an error frame.
func errResponse(format string, args ...any) Response {
	return Response{OK: false, Error: fmt.Sprintf(format, args...)}
}
