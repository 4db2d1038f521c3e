package server

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp"
)

func loadedServer(rng *rand.Rand, nPub, nPriv int) *Server {
	s := New()
	objs := make([]PublicObject, nPub)
	for i := range objs {
		objs[i] = PublicObject{
			ID:   int64(i),
			Pos:  geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Name: "poi",
		}
	}
	s.LoadPublic(objs)
	for i := 0; i < nPriv; i++ {
		x, y := rng.Float64()*950, rng.Float64()*950
		_ = s.UpsertPrivate(PrivateObject{
			ID:     int64(1000 + i),
			Region: geom.R(x, y, x+20+rng.Float64()*30, y+20+rng.Float64()*30),
		})
	}
	return s
}

func TestPublicCRUD(t *testing.T) {
	s := New()
	o := PublicObject{ID: 1, Pos: geom.Pt(5, 5), Name: "cafe"}
	if err := s.AddPublic(o); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPublic(o); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("duplicate add: %v", err)
	}
	got, ok := s.GetPublic(1)
	if !ok || got.Name != "cafe" {
		t.Fatalf("GetPublic = %+v, %v", got, ok)
	}
	if s.PublicCount() != 1 {
		t.Fatalf("PublicCount = %d", s.PublicCount())
	}
	if err := s.RemovePublic(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RemovePublic(1); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("double remove: %v", err)
	}
	if s.PublicCount() != 0 {
		t.Fatalf("PublicCount = %d", s.PublicCount())
	}
}

func TestPrivateUpsertReplaces(t *testing.T) {
	s := New()
	r1 := geom.R(0, 0, 10, 10)
	r2 := geom.R(100, 100, 120, 120)
	if err := s.UpsertPrivate(PrivateObject{ID: 7, Region: r1}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpsertPrivate(PrivateObject{ID: 7, Region: r2}); err != nil {
		t.Fatal(err)
	}
	if s.PrivateCount() != 1 {
		t.Fatalf("PrivateCount = %d, want 1 after upsert", s.PrivateCount())
	}
	got, ok := s.GetPrivate(7)
	if !ok || got.Region != r2 {
		t.Fatalf("GetPrivate = %+v", got)
	}
	// The old region must be gone from the index.
	n, err := s.CountPrivate(r1, privacyqp.CountAnyOverlap)
	if err != nil || n != 0 {
		t.Fatalf("old region still counted: %v, %v", n, err)
	}
	if err := s.RemovePrivate(7); err != nil {
		t.Fatal(err)
	}
	if err := s.RemovePrivate(7); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestUpsertPrivateRejectsInvalidRegion(t *testing.T) {
	s := New()
	bad := geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(1, 1)}
	if err := s.UpsertPrivate(PrivateObject{ID: 1, Region: bad}); err == nil {
		t.Fatal("invalid region accepted")
	}
}

func TestNNPublicPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := loadedServer(rng, 500, 0)
	cloak := geom.R(400, 400, 500, 500)
	res, err := s.NNPublic(cloak, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("empty candidates")
	}
	if s.Queries() != 1 {
		t.Fatalf("Queries = %d", s.Queries())
	}
}

func TestNNPrivateExcludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := loadedServer(rng, 0, 200)
	self := PrivateObject{ID: 42, Region: geom.R(450, 450, 470, 470)}
	if err := s.UpsertPrivate(self); err != nil {
		t.Fatal(err)
	}
	res, err := s.NNPrivate(self.Region, 42, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.ID == 42 {
			t.Fatal("self still in candidate list")
		}
	}
	// Without exclusion the self cloak is a candidate (it overlaps its
	// own query region).
	res, err = s.NNPrivate(self.Region, -1, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Candidates {
		if c.ID == 42 {
			found = true
		}
	}
	if !found {
		t.Fatal("self missing without exclusion")
	}
}

func TestRangePublicAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := loadedServer(rng, 300, 300)
	res, err := s.RangePublic(geom.R(100, 100, 200, 200), 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no range candidates")
	}
	n, err := s.CountPrivate(geom.R(0, 0, 1000, 1000), privacyqp.CountAnyOverlap)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("CountPrivate(all) = %v, want 300", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := loadedServer(rng, 1000, 500)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				switch r.Intn(4) {
				case 0:
					x, y := r.Float64()*900, r.Float64()*900
					_ = s.UpsertPrivate(PrivateObject{
						ID:     int64(5000 + seed*1000 + int64(i)),
						Region: geom.R(x, y, x+10, y+10),
					})
				case 1:
					cloak := geom.R(r.Float64()*800, r.Float64()*800, r.Float64()*800+100, r.Float64()*800+100)
					_, _ = s.NNPublic(cloak, privacyqp.DefaultOptions())
				case 2:
					_, _ = s.CountPrivate(geom.R(0, 0, 500, 500), privacyqp.CountFractional)
				case 3:
					_ = s.PrivateCount()
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestKNNPublicAndPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := loadedServer(rng, 400, 200)
	cloak := geom.R(300, 300, 420, 420)
	res, err := s.KNNPublic(cloak, 5, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) < 5 {
		t.Fatalf("candidates = %d, want >= 5", len(res.Candidates))
	}
	if _, err := s.KNNPublic(cloak, 0, privacyqp.DefaultOptions()); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestQueryCacheHitsOnRepeatedCloaks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := loadedServer(rng, 500, 0)
	cloak := geom.R(256, 256, 384, 384) // grid-aligned style region
	first, err := s.NNPublic(cloak, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.NNPublic(cloak, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Candidates) != len(second.Candidates) {
		t.Fatal("cached result differs")
	}
	hits, misses := s.CacheStats()
	if hits != 1 || misses < 1 {
		t.Fatalf("cache stats: hits=%d misses=%d", hits, misses)
	}
	// Different filter counts are distinct entries.
	if _, err := s.NNPublic(cloak, privacyqp.Options{Filters: 1}); err != nil {
		t.Fatal(err)
	}
	if h, _ := s.CacheStats(); h != 1 {
		t.Fatal("different options wrongly shared a cache entry")
	}
}

func TestQueryCacheInvalidatedByPublicMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := loadedServer(rng, 300, 0)
	cloak := geom.R(100, 100, 200, 200)
	if _, err := s.NNPublic(cloak, privacyqp.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Insert a target right inside the cloak: the next identical query
	// must see it (no stale cache hit).
	if err := s.AddPublic(PublicObject{ID: 9999, Pos: geom.Pt(150, 150), Name: "new"}); err != nil {
		t.Fatal(err)
	}
	res, err := s.NNPublic(cloak, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Candidates {
		if c.ID == 9999 {
			found = true
		}
	}
	if !found {
		t.Fatal("stale cached candidate list after public mutation")
	}
	// Private mutations must NOT invalidate the public cache.
	if err := s.UpsertPrivate(PrivateObject{ID: 1, Region: geom.R(0, 0, 10, 10)}); err != nil {
		t.Fatal(err)
	}
	h0, _ := s.CacheStats()
	if _, err := s.NNPublic(cloak, privacyqp.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if h1, _ := s.CacheStats(); h1 != h0+1 {
		t.Fatal("private mutation wrongly invalidated the public cache")
	}
}

func TestQueryCacheKNNSeparateFromNN(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := loadedServer(rng, 300, 0)
	cloak := geom.R(100, 100, 220, 220)
	nn, err := s.NNPublic(cloak, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	knn, err := s.KNNPublic(cloak, 5, privacyqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// k=5 must not reuse the k=1 entry (its area is larger).
	if knn.AExt == nn.AExt && len(knn.Candidates) == len(nn.Candidates) {
		t.Log("areas coincide by chance; acceptable but checking cache keys via stats")
	}
	if hits, _ := s.CacheStats(); hits != 0 {
		t.Fatalf("unexpected cache hit across k values: %d", hits)
	}
	// Repeat KNN: hit.
	if _, err := s.KNNPublic(cloak, 5, privacyqp.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.CacheStats(); hits != 1 {
		t.Fatalf("KNN repeat not cached: hits=%d", hits)
	}
}
