package protocol

import (
	"errors"
	"fmt"

	"casper/internal/anonymizer"
	"casper/internal/core"
	"casper/internal/server"
)

// ErrOverloaded reports that the server shed the request under
// admission control — the per-user rate limit or the global in-flight
// ceiling — before doing any work. It is retryable: the request had no
// effect, and backing off briefly and resending is the correct client
// response. Travels as the wire-stable "overloaded" code.
var ErrOverloaded = errors.New("server overloaded, retry later")

// ErrResponseTooLarge reports that the answer to a request would not
// fit in one frame (MaxFrameBytes): a density map finer than 361 x 361,
// which is refused before it is computed, or a range query matching
// tens of thousands of objects, which was executed and has only its
// answer withheld. Asking for less (a coarser grid, a smaller radius)
// succeeds. Travels as the wire-stable "response_too_large" code.
var ErrResponseTooLarge = errors.New("response too large")

// ErrUnknownOp reports a request whose op the server does not serve:
// a misspelling, an op of a newer protocol, or a retired one such as
// "stats". Travels as the wire-stable "unknown_op" code.
var ErrUnknownOp = errors.New("unknown op")

// Stable wire error codes. The server maps the framework's sentinel
// errors onto these strings (Response.Code); the client maps them back
// to the same sentinels, so errors.Is works identically in-process and
// across a ProtocolClient round trip. Codes are part of the protocol:
// never renumber or reuse one.
const (
	// CodeAlreadyRegistered maps core.ErrAlreadyRegistered.
	CodeAlreadyRegistered = "already_registered"
	// CodeNotRegistered maps core.ErrNotRegistered.
	CodeNotRegistered = "not_registered"
	// CodeMonitorDisabled maps core.ErrMonitorDisabled.
	CodeMonitorDisabled = "monitor_disabled"
	// CodeEmptyCandidates maps core.ErrEmptyCandidates.
	CodeEmptyCandidates = "empty_candidates"
	// CodeNoBuddies maps core.ErrNoBuddies.
	CodeNoBuddies = "no_buddies"
	// CodeUnsatisfiable maps anonymizer.ErrUnsatisfiable.
	CodeUnsatisfiable = "unsatisfiable"
	// CodeUnknownObject maps server.ErrUnknownObject.
	CodeUnknownObject = "unknown_object"
	// CodeDuplicateObject maps server.ErrDuplicateObject.
	CodeDuplicateObject = "duplicate_object"
	// CodeOverloaded maps ErrOverloaded. Retryable: the server shed the
	// request under admission control before doing any work.
	CodeOverloaded = "overloaded"
	// CodeBudgetExhausted maps core.ErrBudgetExhausted. The cloak was
	// cut and then discarded unreleased, because the user's cumulative
	// ε spend had reached the -epsilon-budget ceiling; nothing reached
	// the server. Retrying succeeds once an operator raises or clears
	// the ceiling.
	CodeBudgetExhausted = "budget_exhausted"
	// CodeResponseTooLarge maps ErrResponseTooLarge.
	CodeResponseTooLarge = "response_too_large"
	// CodeUnknownOp maps ErrUnknownOp.
	CodeUnknownOp = "unknown_op"
)

// wireCodes orders the sentinel → code mapping. More specific
// sentinels must precede any they wrap (none currently wrap another,
// but the order is part of the contract).
var wireCodes = []struct {
	sentinel error
	code     string
}{
	{core.ErrAlreadyRegistered, CodeAlreadyRegistered},
	{core.ErrNotRegistered, CodeNotRegistered},
	{core.ErrMonitorDisabled, CodeMonitorDisabled},
	{core.ErrEmptyCandidates, CodeEmptyCandidates},
	{core.ErrNoBuddies, CodeNoBuddies},
	{anonymizer.ErrUnsatisfiable, CodeUnsatisfiable},
	{server.ErrUnknownObject, CodeUnknownObject},
	{server.ErrDuplicateObject, CodeDuplicateObject},
	{ErrOverloaded, CodeOverloaded},
	{core.ErrBudgetExhausted, CodeBudgetExhausted},
	{ErrResponseTooLarge, CodeResponseTooLarge},
	{ErrUnknownOp, CodeUnknownOp},
}

// Resolve an error-code child per wire code eagerly (plus the two
// codes minted outside the sentinel table) so the series exist from
// the first scrape and the metric inventory audit sees the family.
var _ = func() int {
	for _, w := range wireCodes {
		rpcErrors.With(w.code)
	}
	rpcErrors.With("internal")
	rpcErrors.With("write_timeout")
	return 0
}()

// codeOf returns the wire code for an error's sentinel, or "" when the
// error carries none.
func codeOf(err error) string {
	for _, w := range wireCodes {
		if errors.Is(err, w.sentinel) {
			return w.code
		}
	}
	return ""
}

// sentinelOf is the inverse of codeOf; nil for unknown codes (a newer
// server may emit codes an older client does not know — the message
// still gets through).
func sentinelOf(code string) error {
	for _, w := range wireCodes {
		if w.code == code {
			return w.sentinel
		}
	}
	return nil
}

// WireError is an application-level error received over the protocol.
// Unwrap exposes the sentinel named by Code, so
// errors.Is(err, core.ErrNotRegistered) (or the casper re-export)
// holds on the client exactly as it would in-process.
type WireError struct {
	// Op is the request op that failed.
	Op string
	// Code is the stable wire error code, "" when the server attached
	// none.
	Code string
	// Message is the human-readable server-side error text.
	Message string
}

// Error implements error.
func (e *WireError) Error() string { return fmt.Sprintf("protocol: %s: %s", e.Op, e.Message) }

// Unwrap exposes the sentinel behind Code (nil when unknown).
func (e *WireError) Unwrap() error { return sentinelOf(e.Code) }

// errFrom builds an error frame from a framework error, attaching the
// wire code when the error chain contains a known sentinel.
func errFrom(err error) Response {
	return Response{OK: false, Error: err.Error(), Code: codeOf(err)}
}
