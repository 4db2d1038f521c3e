package privacyqp

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"casper/internal/geom"
	"casper/internal/rtree"
)

func TestPrivateKNNValidation(t *testing.T) {
	db := pointDB(rand.New(rand.NewSource(1)), 10)
	cloak := geom.R(10, 10, 20, 20)
	if _, err := PrivateKNN(db, cloak, 0, PublicData, DefaultOptions()); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PrivateKNN(db, cloak, 11, PublicData, DefaultOptions()); err == nil {
		t.Fatal("k > population accepted")
	}
	if _, err := PrivateKNN(db, cloak, 1, PublicData, Options{Filters: 3}); err == nil {
		t.Fatal("bad filters accepted")
	}
	if _, err := PrivateKNN(rtree.New(), cloak, 1, PublicData, DefaultOptions()); !errors.Is(err, ErrNoTargets) {
		t.Fatal("empty db accepted")
	}
	bad := geom.Rect{Min: geom.Pt(math.NaN(), 0), Max: geom.Pt(1, 1)}
	if _, err := PrivateKNN(db, bad, 1, PublicData, DefaultOptions()); err == nil {
		t.Fatal("invalid cloak accepted")
	}
}

// TestKNNInclusivenessPublic is the k-NN generalization of Theorem 1:
// wherever the user is in the cloak, ALL of her k nearest targets are
// in the candidate list, for every filter variant.
func TestKNNInclusivenessPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		n := 30 + rng.Intn(300)
		db := pointDB(rng, n)
		all := db.All()
		cloak := randCloak(rng, 1200)
		k := 1 + rng.Intn(8)
		for _, f := range []int{1, 2, 4} {
			res, err := PrivateKNN(db, cloak, k, PublicData, Options{Filters: f})
			if err != nil {
				t.Fatal(err)
			}
			inCand := map[int64]bool{}
			for _, c := range res.Candidates {
				inCand[c.ID] = true
			}
			for probe := 0; probe < 15; probe++ {
				user := samplePt(rng, cloak)
				type dd struct {
					id int64
					d  float64
				}
				ds := make([]dd, 0, len(all))
				for _, it := range all {
					ds = append(ds, dd{it.ID, user.Dist(it.Rect.Min)})
				}
				sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
				for rank := 0; rank < k; rank++ {
					if !inCand[ds[rank].id] {
						t.Fatalf("filters=%d trial=%d k=%d: rank-%d NN %d missing from %d candidates",
							f, trial, k, rank, ds[rank].id, len(res.Candidates))
					}
				}
			}
		}
	}
}

// TestKNNInclusivenessPrivate is the k-NN generalization of Theorem 3.
func TestKNNInclusivenessPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := 30 + rng.Intn(200)
		db := rectDB(rng, n, 500)
		all := db.All()
		cloak := randCloak(rng, 1000)
		k := 1 + rng.Intn(5)
		res, err := PrivateKNN(db, cloak, k, PrivateData, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		inCand := map[int64]bool{}
		for _, c := range res.Candidates {
			inCand[c.ID] = true
		}
		for probe := 0; probe < 10; probe++ {
			user := samplePt(rng, cloak)
			// Sample concrete target positions; the true k nearest
			// among them must all be candidates.
			type dd struct {
				id int64
				d  float64
			}
			ds := make([]dd, 0, len(all))
			for _, it := range all {
				ds = append(ds, dd{it.ID, user.Dist(samplePt(rng, it.Rect))})
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
			for rank := 0; rank < k; rank++ {
				if !inCand[ds[rank].id] {
					t.Fatalf("trial=%d k=%d: rank-%d target %d missing", trial, k, rank, ds[rank].id)
				}
			}
		}
	}
}

func TestKNNFiltersTightenArea(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := pointDB(rng, 3000)
	var sum [5]float64
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		cloak := randCloak(rng, 800)
		for _, f := range []int{1, 2, 4} {
			res, err := PrivateKNN(db, cloak, 3, PublicData, Options{Filters: f})
			if err != nil {
				t.Fatal(err)
			}
			sum[f] += res.AExt.Area()
		}
	}
	if !(sum[4] <= sum[2] && sum[2] <= sum[1]) {
		t.Fatalf("A_EXT area should shrink with filters: 1->%v 2->%v 4->%v",
			sum[1]/trials, sum[2]/trials, sum[4]/trials)
	}
}

func TestKNNMoreNeighborsGrowArea(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	db := pointDB(rng, 2000)
	cloak := randCloak(rng, 600)
	prev := 0.0
	for _, k := range []int{1, 4, 16} {
		res, err := PrivateKNN(db, cloak, k, PublicData, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.AExt.Area() < prev {
			t.Fatalf("k=%d: area shrank: %v < %v", k, res.AExt.Area(), prev)
		}
		prev = res.AExt.Area()
		if len(res.Candidates) < k {
			t.Fatalf("k=%d: only %d candidates", k, len(res.Candidates))
		}
	}
}

func TestRefineKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db := pointDB(rng, 500)
	cloak := randCloak(rng, 800)
	const k = 5
	res, err := PrivateKNN(db, cloak, k, PublicData, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	user := samplePt(rng, cloak)
	got := RefineKNN(user, res.Candidates, k, PublicData)
	if len(got) != k {
		t.Fatalf("refined %d, want %d", len(got), k)
	}
	// Ascending and globally correct distances.
	all := db.All()
	var ds []float64
	for _, it := range all {
		ds = append(ds, user.Dist(it.Rect.Min))
	}
	sort.Float64s(ds)
	for i, it := range got {
		d := user.Dist(it.Rect.Min)
		if i > 0 && d < user.Dist(got[i-1].Rect.Min) {
			t.Fatal("refined list not ascending")
		}
		if math.Abs(d-ds[i]) > 1e-9 {
			t.Fatalf("rank %d: refined dist %v, true %v", i, d, ds[i])
		}
	}
	if RefineKNN(user, nil, 3, PublicData) != nil {
		t.Fatal("empty candidates should refine to nil")
	}
	if RefineKNN(user, res.Candidates, 0, PublicData) != nil {
		t.Fatal("k=0 should refine to nil")
	}
}

// refineCandidates returns n candidates on a coarse lattice, so equal
// refine distances are common: public points repeat lattice positions,
// private rectangles repeat aligned lattice blocks.
func refineCandidates(rng *rand.Rand, n int, kind DataKind) []rtree.Item {
	cands := make([]rtree.Item, n)
	for i, id := range rng.Perm(n) {
		x, y := float64(rng.Intn(8))*100, float64(rng.Intn(8))*100
		r := geom.R(x, y, x, y)
		if kind == PrivateData {
			r.Max = geom.Pt(x+100, y+100)
		}
		cands[i] = rtree.Item{Rect: r, ID: int64(id)}
	}
	return cands
}

// TestRefineKNNMatchesSortedCandidates: the refinement is the first k
// of a full (refine distance, ID) sort of the candidates, whatever
// their order, and allocates only the result.
func TestRefineKNNMatchesSortedCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, kind := range []DataKind{PublicData, PrivateData} {
		for trial := 0; trial < 200; trial++ {
			cands := refineCandidates(rng, 1+rng.Intn(60), kind)
			user := geom.Pt(float64(rng.Intn(15))*50, float64(rng.Intn(15))*50)
			k := rng.Intn(len(cands)+5) - 2 // k <= 0 and k > len included
			want := append([]rtree.Item(nil), cands...)
			sort.Slice(want, func(i, j int) bool {
				di, dj := refineDist(user, want[i], kind), refineDist(user, want[j], kind)
				return di < dj || di == dj && want[i].ID < want[j].ID
			})
			want = want[:max(0, min(k, len(want)))]
			for pass := 0; pass < 2; pass++ {
				got := RefineKNN(user, cands, k, kind)
				if len(got) != len(want) || k <= 0 && got != nil {
					t.Fatalf("%v trial %d k=%d of %d: %d items, want %d", kind, trial, k, len(cands), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v trial %d k=%d rank %d: %+v, want %+v", kind, trial, k, i, got[i], want[i])
					}
				}
				rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			}
		}
		// The allocation budget holds only without the race detector,
		// under which sync.Pool drops Puts at random and a pooled
		// scratch arena is sometimes allocated afresh.
		cands := refineCandidates(rng, 150, kind)
		if a := testing.AllocsPerRun(100, func() { RefineKNN(geom.Pt(350, 350), cands, 5, kind) }); a > 2 && !raceEnabled {
			t.Fatalf("%v: RefineKNN allocates %v times per call, budget 2", kind, a)
		}
	}
}

// refineSink keeps BenchmarkRefineKNN's calls from being optimized away.
var refineSink []rtree.Item

// BenchmarkRefineKNN is the client refinement of a k-NN answer at the
// size of a query-cache miss: 150 candidates, k = 5.
func BenchmarkRefineKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	db := pointDB(rng, 150)
	cands := db.All()
	user := geom.Pt(500, 500)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refineSink = RefineKNN(user, cands, 5, PublicData)
	}
}

func TestKNNMinOverlapPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	db := rectDB(rng, 1500, 400)
	cloak := randCloak(rng, 800)
	loose, err := PrivateKNN(db, cloak, 3, PrivateData, Options{Filters: 4})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := PrivateKNN(db, cloak, 3, PrivateData, Options{Filters: 4, MinOverlap: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Candidates) > len(loose.Candidates) {
		t.Fatal("MinOverlap grew candidates")
	}
}
