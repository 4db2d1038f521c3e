package protocol

import (
	"testing"
	"time"

	"casper/internal/core"
	"casper/internal/geom"
)

// newAdmissionServer returns a server whose admission clock is the
// returned fake: tests advance it explicitly, so token refill is
// deterministic regardless of scheduler jitter.
func newAdmissionServer() (*Server, *time.Time) {
	cfg := core.DefaultConfig()
	cfg.Universe = geom.R(0, 0, 1024, 1024)
	s := NewServer(core.MustNew(cfg))
	now := time.Unix(1000, 0)
	s.adm.now = func() time.Time { return now }
	return s, &now
}

func TestRateLimitBucket(t *testing.T) {
	s, now := newAdmissionServer()
	s.SetRateLimit(1, 2) // 1 req/s sustained, burst of 2

	admit := func(uid int64) (string, bool) {
		reason := s.adm.admit(uid)
		if reason == "" {
			s.adm.release()
			return "", true
		}
		return reason, false
	}

	// The bucket starts full: the burst is admitted, the next is shed.
	for i := 0; i < 2; i++ {
		if _, ok := admit(7); !ok {
			t.Fatalf("burst request %d shed; want admitted", i)
		}
	}
	reason, ok := admit(7)
	if ok || reason != shedReasonRateLimit {
		t.Fatalf("over-burst request: admitted=%v reason=%q; want shed %q", ok, reason, shedReasonRateLimit)
	}

	// One second refills exactly one token.
	*now = now.Add(1 * time.Second)
	if _, ok := admit(7); !ok {
		t.Fatal("request after 1s refill shed; want admitted")
	}
	if _, ok := admit(7); ok {
		t.Fatal("second request after 1s refill admitted; want shed")
	}

	// A long idle clamps the refill at the burst, not unbounded credit.
	*now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if _, ok := admit(7); !ok {
			t.Fatalf("post-idle burst request %d shed; want admitted", i)
		}
	}
	if _, ok := admit(7); ok {
		t.Fatal("request beyond clamped burst admitted; want shed")
	}

	// Other users have their own buckets; uid 0 (admin ops) bypasses.
	if _, ok := admit(8); !ok {
		t.Fatal("fresh uid shed; want its own full bucket")
	}
	for i := 0; i < 10; i++ {
		if _, ok := admit(0); !ok {
			t.Fatal("uid 0 shed; want per-user limiting bypassed")
		}
	}
}

func TestRateLimitDisabledAndClamped(t *testing.T) {
	s, _ := newAdmissionServer()

	// No limit configured: everything is admitted.
	for i := 0; i < 100; i++ {
		if reason := s.adm.admit(42); reason != "" {
			t.Fatalf("unlimited server shed a request (%s)", reason)
		} else {
			s.adm.release()
		}
	}

	// burst < 1 is raised to 1 so a nonzero rate still admits singles.
	s.SetRateLimit(5, 0)
	if rps, burst := s.RateLimit(); rps != 5 || burst != 1 {
		t.Fatalf("RateLimit() = (%v, %v); want (5, 1)", rps, burst)
	}

	// rps <= 0 reads back as fully disabled.
	s.SetRateLimit(0, 50)
	if rps, burst := s.RateLimit(); rps != 0 || burst != 0 {
		t.Fatalf("RateLimit() after disable = (%v, %v); want (0, 0)", rps, burst)
	}
}

func TestMaxConcurrentCeiling(t *testing.T) {
	s, _ := newAdmissionServer()
	s.SetMaxConcurrent(2)
	if s.MaxConcurrent() != 2 {
		t.Fatalf("MaxConcurrent() = %d; want 2", s.MaxConcurrent())
	}

	r1 := s.adm.admit(1)
	r2 := s.adm.admit(2)
	if r1 != "" || r2 != "" {
		t.Fatal("requests under the ceiling shed")
	}
	if got := s.InFlight(); got != 2 {
		t.Fatalf("InFlight() = %d; want 2", got)
	}
	reason := s.adm.admit(3)
	if reason != shedReasonInFlight {
		t.Fatalf("over-ceiling request: admitted=%v reason=%q; want shed %q", reason == "", reason, shedReasonInFlight)
	}
	// A failed admission must not leak in-flight slots.
	if got := s.InFlight(); got != 2 {
		t.Fatalf("InFlight() after shed = %d; want 2", got)
	}

	s.adm.release()
	if s.adm.admit(4) != "" {
		t.Fatal("request after release shed; want admitted")
	} else {
		s.adm.release()
	}
	s.adm.release()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight() after all releases = %d; want 0", got)
	}
}

func TestBucketEviction(t *testing.T) {
	s, now := newAdmissionServer()
	s.SetRateLimit(1, 1) // a bucket refills fully after 1s idle

	// Fill shard 0 to its cap with distinct uids (uid%16 == 0 lands in
	// shard 0; skip uid 0, which bypasses limiting entirely).
	for i := 1; i <= admissionMaxBucketsPerShard; i++ {
		uid := int64(i) * admissionShards
		if s.adm.admit(uid) == "" {
			s.adm.release()
		}
	}
	sh := &s.adm.shards[0]
	sh.mu.Lock()
	full := len(sh.buckets)
	sh.mu.Unlock()
	if full != admissionMaxBucketsPerShard {
		t.Fatalf("shard holds %d buckets; want cap %d", full, admissionMaxBucketsPerShard)
	}

	// Everything is now idle long enough to have refilled: the next new
	// uid triggers eviction instead of growing past the cap.
	*now = now.Add(2 * time.Second)
	newUID := int64(admissionMaxBucketsPerShard+1) * admissionShards
	if s.adm.admit(newUID) != "" {
		t.Fatal("new uid shed during eviction; want admitted")
	} else {
		s.adm.release()
	}
	sh.mu.Lock()
	after := len(sh.buckets)
	sh.mu.Unlock()
	if after != 1 {
		t.Fatalf("shard holds %d buckets after eviction; want 1 (just the new uid)", after)
	}
}
