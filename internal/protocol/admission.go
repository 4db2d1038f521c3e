// admission.go is the front door's load shedding: a per-user token
// bucket and a global in-flight ceiling, both checked before a request
// does any work. A shed request costs the server one error frame and
// nothing else — no cloak, no query, no WAL append — which is what
// keeps the anonymizer answering its admitted traffic when a client
// floods it. Shed responses carry the retryable "overloaded" wire code,
// so well-behaved clients back off and resend while
// errors.Is(err, ErrOverloaded) stays true across the round trip.
//
// Both knobs are runtime-tunable (SetRateLimit, SetMaxConcurrent) so
// casperd's hot config reload can tighten or relax admission without a
// restart.
package protocol

import (
	"sync"
	"sync/atomic"
	"time"
)

// admissionShards spreads the per-user buckets over independently
// locked maps so concurrent connections do not serialize on one mutex.
const admissionShards = 16

// admissionMaxBucketsPerShard caps bucket-table growth under hostile
// uid churn: when a shard is full, buckets idle long enough to have
// refilled completely are evicted before a new one is added. A full
// shard of *active* abusers past the cap falls back to admitting the
// new uid (memory safety beats strict fairness for uids beyond
// 16*4096 concurrent actives).
const admissionMaxBucketsPerShard = 4096

// userBucket is one user's token bucket. Guarded by its shard's lock;
// tokens refill lazily on access.
type userBucket struct {
	tokens float64
	last   time.Time
}

// rateLimit is the immutable (rate, burst) pair swapped atomically on
// reload. rps <= 0 disables per-user limiting.
type rateLimit struct {
	rps   float64
	burst float64
}

// admission holds the server's admission-control state.
type admission struct {
	limit         atomic.Pointer[rateLimit]
	maxConcurrent atomic.Int64 // global dispatch ceiling; <= 0 disables
	inFlight      atomic.Int64 // requests admitted and not yet answered

	shards [admissionShards]struct {
		mu      sync.Mutex
		buckets map[int64]*userBucket
	}

	// now is the clock, swappable in tests to drive refill
	// deterministically.
	now func() time.Time
}

func (a *admission) init() {
	a.now = time.Now
	for i := range a.shards {
		a.shards[i].buckets = make(map[int64]*userBucket)
	}
}

// SetRateLimit configures the per-user token bucket: each user may
// issue rps requests/second sustained with bursts up to burst. rps <= 0
// disables per-user limiting; burst < 1 is raised to 1 so a nonzero
// rate always admits single requests. Safe to call at any time — the
// new limit applies to the next admission check.
func (s *Server) SetRateLimit(rps, burst float64) {
	if burst < 1 {
		burst = 1
	}
	s.adm.limit.Store(&rateLimit{rps: rps, burst: burst})
}

// RateLimit reports the current per-user (rps, burst) pair; (0, 0)
// when per-user limiting is disabled.
func (s *Server) RateLimit() (rps, burst float64) {
	l := s.adm.limit.Load()
	if l == nil || l.rps <= 0 {
		return 0, 0
	}
	return l.rps, l.burst
}

// SetMaxConcurrent caps requests dispatched server-wide (across every
// connection); further requests are shed
// with the retryable "overloaded" code until in-flight work completes.
// n <= 0 disables the ceiling. Safe to call at any time.
func (s *Server) SetMaxConcurrent(n int) {
	s.adm.maxConcurrent.Store(int64(n))
}

// MaxConcurrent reports the global in-flight ceiling (0 = disabled).
func (s *Server) MaxConcurrent() int {
	n := s.adm.maxConcurrent.Load()
	if n <= 0 {
		return 0
	}
	return int(n)
}

// InFlight reports requests currently admitted and not yet answered,
// server-wide.
func (s *Server) InFlight() int64 { return s.adm.inFlight.Load() }

// allowUser runs uid through its token bucket; reports whether the
// request is admitted. uid 0 (administrator ops that carry no user)
// bypasses per-user limiting.
func (a *admission) allowUser(uid int64) bool {
	l := a.limit.Load()
	if l == nil || l.rps <= 0 || uid == 0 {
		return true
	}
	now := a.now()
	sh := &a.shards[uint64(uid)%admissionShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.buckets[uid]
	if !ok {
		if len(sh.buckets) >= admissionMaxBucketsPerShard {
			a.evictIdleLocked(sh.buckets, l, now)
			if len(sh.buckets) >= admissionMaxBucketsPerShard {
				return true // table saturated by active users; see cap doc
			}
		}
		b = &userBucket{tokens: l.burst, last: now}
		sh.buckets[uid] = b
	}
	// Lazy refill, clamped to the burst size. A reload that shrank the
	// burst takes effect here too.
	b.tokens += now.Sub(b.last).Seconds() * l.rps
	b.last = now
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictIdleLocked drops buckets idle long enough that they would have
// refilled to a full burst — forgetting one is behaviorally identical
// to recreating it fresh.
func (a *admission) evictIdleLocked(buckets map[int64]*userBucket, l *rateLimit, now time.Time) {
	if l.rps <= 0 {
		return
	}
	fullAfter := time.Duration(l.burst / l.rps * float64(time.Second))
	for uid, b := range buckets {
		if now.Sub(b.last) >= fullAfter {
			delete(buckets, uid)
		}
	}
}

// admit runs one decoded request through admission control. It returns
// "" when the request may dispatch; the caller must then call release
// exactly once after the response is built. A non-empty reason means
// the request was shed: the caller answers with the overloaded error
// frame and does nothing else.
func (a *admission) admit(uid int64) (reason string) {
	if !a.allowUser(uid) {
		return shedReasonRateLimit
	}
	if max := a.maxConcurrent.Load(); max > 0 {
		if a.inFlight.Add(1) > max {
			a.inFlight.Add(-1)
			return shedReasonInFlight
		}
	} else {
		a.inFlight.Add(1)
	}
	return ""
}

// release frees the in-flight slot of a request admit let through.
func (a *admission) release() { a.inFlight.Add(-1) }

// Shed reasons: the label values of casper_shed_total and the "reason"
// attribute on shed trace spans.
const (
	shedReasonRateLimit = "rate_limit"
	shedReasonInFlight  = "inflight"
)
