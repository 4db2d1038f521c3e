// Benchmarks regenerating the Casper paper's evaluation, one per
// figure panel (see DESIGN.md §4 for the experiment index). Each
// benchmark's kernel is the operation the paper times on its y-axis;
// the sweep variable becomes a sub-benchmark, so
//
//	go test -bench=Fig13a -benchmem
//
// prints the same series Fig. 13a plots. Non-time panels (candidate
// sizes, accuracies, update counts) are emitted via b.ReportMetric.
//
// The benchmarks default to the Quick workload scale; run
// cmd/casper-bench -scale paper for the full 50K-user setup.
package casper_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"casper"
	"casper/internal/anonymizer"
	"casper/internal/baselines"
	"casper/internal/continuous"
	"casper/internal/experiments"
	"casper/internal/geom"
	"casper/internal/gridindex"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
	"casper/internal/server"
)

// newQuadBaseline loads the first n trace users into the
// Gruteser-Grunwald quadtree cloaker.
func newQuadBaseline(w *experiments.World, n, k int) *baselines.QuadtreeCloak {
	quad := baselines.NewQuadtreeCloak(w.Universe, k)
	for i := 0; i < n; i++ {
		quad.Set(int64(i), w.Initial[i])
	}
	return quad
}

// benchWorld is shared across benchmarks: building the moving-object
// trace once keeps `go test -bench=.` fast.
var benchWorld *experiments.World

func world() *experiments.World {
	if benchWorld == nil {
		benchWorld = experiments.NewWorld(experiments.Quick())
	}
	return benchWorld
}

// cloakKernel measures Algorithm 1 over random registered users.
func cloakKernel(b *testing.B, a anonymizer.Anonymizer) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	users := a.Users()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uid := anonymizer.UserID(rng.Intn(users))
		if _, err := a.Cloak(uid); err != nil {
			b.Fatalf("cloak: %v", err)
		}
	}
}

// BenchmarkFig10aCloakingTimeVsHeight is Fig. 10a: cloaking time vs
// pyramid height, basic vs adaptive. ns/op is the figure's y-axis.
func BenchmarkFig10aCloakingTimeVsHeight(b *testing.B) {
	w := world()
	for _, h := range []int{4, 6, 9} {
		b.Run(fmt.Sprintf("H=%d/basic", h), func(b *testing.B) {
			cloakKernel(b, w.BuildBasic(h, w.P.Users, w.Profiles))
		})
		b.Run(fmt.Sprintf("H=%d/adaptive", h), func(b *testing.B) {
			cloakKernel(b, w.BuildAdaptive(h, w.P.Users, w.Profiles))
		})
	}
}

// updateKernel measures one location update per op and reports the
// paper's y-axis (cell-counter updates per location update) as a
// custom metric.
func updateKernel(b *testing.B, a anonymizer.Anonymizer, w *experiments.World) {
	b.Helper()
	rng := rand.New(rand.NewSource(101))
	users := a.Users()
	a.ResetUpdateCost()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uid := anonymizer.UserID(rng.Intn(users))
		pos := w.Moved[rng.Intn(len(w.Moved))]
		if err := a.Update(uid, pos); err != nil {
			b.Fatalf("update: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(a.UpdateCost())/float64(b.N), "counter-updates/op")
}

// BenchmarkFig10bUpdateCostVsHeight is Fig. 10b: maintenance cost vs
// pyramid height.
func BenchmarkFig10bUpdateCostVsHeight(b *testing.B) {
	w := world()
	for _, h := range []int{4, 6, 9} {
		b.Run(fmt.Sprintf("H=%d/basic", h), func(b *testing.B) {
			updateKernel(b, w.BuildBasic(h, w.P.Users, w.Profiles), w)
		})
		b.Run(fmt.Sprintf("H=%d/adaptive", h), func(b *testing.B) {
			updateKernel(b, w.BuildAdaptive(h, w.P.Users, w.Profiles), w)
		})
	}
}

// accuracyKernel cloaks random users at fixed k and reports k'/k.
func accuracyKernel(b *testing.B, w *experiments.World, basic *anonymizer.Basic, k int) {
	b.Helper()
	rng := rand.New(rand.NewSource(103))
	sum, n := 0.0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := w.Initial[rng.Intn(len(w.Initial))]
		cr, err := basic.CloakAt(pos, anonymizer.Profile{K: k})
		if err != nil {
			continue
		}
		sum += float64(cr.KFound) / float64(k)
		n++
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "k-accuracy")
	}
}

// BenchmarkFig10cKAccuracy is Fig. 10c: k accuracy vs pyramid height
// per user group ("k-accuracy" metric; 1.0 is optimal).
func BenchmarkFig10cKAccuracy(b *testing.B) {
	w := world()
	for _, h := range []int{4, 6, 9} {
		basic := w.BuildBasic(h, w.P.Users, w.Profiles)
		for _, k := range []int{5, 50, 175} {
			b.Run(fmt.Sprintf("H=%d/k=%d", h, k), func(b *testing.B) {
				accuracyKernel(b, w, basic, k)
			})
		}
	}
}

// BenchmarkFig10dAreaAccuracy is Fig. 10d: area accuracy vs pyramid
// height ("area-accuracy" metric; 1.0 is optimal).
func BenchmarkFig10dAreaAccuracy(b *testing.B) {
	w := world()
	area := w.Universe.Area()
	for _, h := range []int{4, 6, 9} {
		basic := w.BuildBasic(h, w.P.Users, w.Profiles)
		for _, frac := range []float64{2e-5, 1e-4, 1e-3} {
			b.Run(fmt.Sprintf("H=%d/AminFrac=%g", h, frac), func(b *testing.B) {
				rng := rand.New(rand.NewSource(104))
				sum, n := 0.0, 0
				for i := 0; i < b.N; i++ {
					pos := w.Initial[rng.Intn(len(w.Initial))]
					amin := frac * area
					cr, err := basic.CloakAt(pos, anonymizer.Profile{K: 1, AMin: amin})
					if err != nil {
						continue
					}
					sum += cr.Region.Area() / amin
					n++
				}
				if n > 0 {
					b.ReportMetric(sum/float64(n), "area-accuracy")
				}
			})
		}
	}
}

// BenchmarkFig11aCloakingTimeVsUsers is Fig. 11a.
func BenchmarkFig11aCloakingTimeVsUsers(b *testing.B) {
	w := world()
	for _, frac := range []float64{0.02, 0.2, 1.0} {
		n := int(float64(w.P.Users) * frac)
		b.Run(fmt.Sprintf("users=%d/basic", n), func(b *testing.B) {
			cloakKernel(b, w.BuildBasic(w.P.Levels, n, w.Profiles))
		})
		b.Run(fmt.Sprintf("users=%d/adaptive", n), func(b *testing.B) {
			cloakKernel(b, w.BuildAdaptive(w.P.Levels, n, w.Profiles))
		})
	}
}

// BenchmarkFig11bUpdateCostVsUsers is Fig. 11b.
func BenchmarkFig11bUpdateCostVsUsers(b *testing.B) {
	w := world()
	for _, frac := range []float64{0.02, 0.2, 1.0} {
		n := int(float64(w.P.Users) * frac)
		b.Run(fmt.Sprintf("users=%d/basic", n), func(b *testing.B) {
			updateKernel(b, w.BuildBasic(w.P.Levels, n, w.Profiles), w)
		})
		b.Run(fmt.Sprintf("users=%d/adaptive", n), func(b *testing.B) {
			updateKernel(b, w.BuildAdaptive(w.P.Levels, n, w.Profiles), w)
		})
	}
}

// BenchmarkFig12aCloakingTimeVsK is Fig. 12a.
func BenchmarkFig12aCloakingTimeVsK(b *testing.B) {
	w := world()
	for _, g := range [][2]int{{1, 10}, {50, 60}, {150, 200}} {
		profiles := w.MakeProfiles(w.P.Users, g, w.P.AminFrac)
		b.Run(fmt.Sprintf("k=%d-%d/basic", g[0], g[1]), func(b *testing.B) {
			cloakKernel(b, w.BuildBasic(w.P.Levels, w.P.Users, profiles))
		})
		b.Run(fmt.Sprintf("k=%d-%d/adaptive", g[0], g[1]), func(b *testing.B) {
			cloakKernel(b, w.BuildAdaptive(w.P.Levels, w.P.Users, profiles))
		})
	}
}

// BenchmarkFig12bUpdateCostVsK is Fig. 12b.
func BenchmarkFig12bUpdateCostVsK(b *testing.B) {
	w := world()
	for _, g := range [][2]int{{1, 10}, {50, 60}, {150, 200}} {
		profiles := w.MakeProfiles(w.P.Users, g, w.P.AminFrac)
		b.Run(fmt.Sprintf("k=%d-%d/basic", g[0], g[1]), func(b *testing.B) {
			updateKernel(b, w.BuildBasic(w.P.Levels, w.P.Users, profiles), w)
		})
		b.Run(fmt.Sprintf("k=%d-%d/adaptive", g[0], g[1]), func(b *testing.B) {
			updateKernel(b, w.BuildAdaptive(w.P.Levels, w.P.Users, profiles), w)
		})
	}
}

// queryKernel measures PrivateNN per op and reports the mean candidate
// list size, the y-axis of the "a" panels of Figures 13-16.
func queryKernel(b *testing.B, db privacyqp.SpatialIndex, cloaks []geom.Rect, kind privacyqp.DataKind, filters int) {
	b.Helper()
	opt := privacyqp.Options{Filters: filters}
	total := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := privacyqp.PrivateNN(db, cloaks[i%len(cloaks)], kind, opt)
		if err != nil {
			b.Fatalf("query: %v", err)
		}
		total += len(res.Candidates)
	}
	b.ReportMetric(float64(total)/float64(b.N), "candidates/op")
}

// BenchmarkFig13aCandidateVsPublicTargets is Fig. 13a (candidate size
// via the candidates/op metric) and BenchmarkFig13bTimeVsPublicTargets
// is Fig. 13b (ns/op); the kernel is shared, so both names run it.
func BenchmarkFig13aCandidateVsPublicTargets(b *testing.B) { benchFig13(b) }

// BenchmarkFig13bTimeVsPublicTargets is Fig. 13b.
func BenchmarkFig13bTimeVsPublicTargets(b *testing.B) { benchFig13(b) }

func benchFig13(b *testing.B) {
	w := world()
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, 64)
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		n := int(float64(w.P.Targets) * frac)
		db := w.PublicTree(n)
		for _, f := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("targets=%d/filters=%d", n, f), func(b *testing.B) {
				queryKernel(b, db, cloaks, privacyqp.PublicData, f)
			})
		}
	}
}

// BenchmarkFig14aCandidateVsPrivateTargets is Fig. 14a.
func BenchmarkFig14aCandidateVsPrivateTargets(b *testing.B) { benchFig14(b) }

// BenchmarkFig14bTimeVsPrivateTargets is Fig. 14b.
func BenchmarkFig14bTimeVsPrivateTargets(b *testing.B) { benchFig14(b) }

func benchFig14(b *testing.B) {
	w := world()
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, 64)
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		n := int(float64(w.P.Targets) * frac)
		db := w.PrivateTree(n, w.P.PrivateCells)
		for _, f := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("targets=%d/filters=%d", n, f), func(b *testing.B) {
				queryKernel(b, db, cloaks, privacyqp.PrivateData, f)
			})
		}
	}
}

// BenchmarkFig15aCandidateVsQueryRegion is Fig. 15a.
func BenchmarkFig15aCandidateVsQueryRegion(b *testing.B) { benchFig15(b) }

// BenchmarkFig15bTimeVsQueryRegion is Fig. 15b.
func BenchmarkFig15bTimeVsQueryRegion(b *testing.B) { benchFig15(b) }

func benchFig15(b *testing.B) {
	w := world()
	db := w.PublicTree(w.P.Targets)
	for _, cells := range []int{4, 64, 1024} {
		cloaks := w.FixedSizeCloaks(64, cells)
		for _, f := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("cells=%d/filters=%d", cells, f), func(b *testing.B) {
				queryKernel(b, db, cloaks, privacyqp.PublicData, f)
			})
		}
	}
}

// BenchmarkFig16aCandidateVsDataRegion is Fig. 16a.
func BenchmarkFig16aCandidateVsDataRegion(b *testing.B) { benchFig16(b) }

// BenchmarkFig16bTimeVsDataRegion is Fig. 16b.
func BenchmarkFig16bTimeVsDataRegion(b *testing.B) { benchFig16(b) }

func benchFig16(b *testing.B) {
	w := world()
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, 64)
	for _, cells := range []int{4, 64, 256} {
		db := w.PrivateTree(w.P.Targets, [2]int{cells, cells})
		for _, f := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("cells=%d/filters=%d", cells, f), func(b *testing.B) {
				queryKernel(b, db, cloaks, privacyqp.PrivateData, f)
			})
		}
	}
}

// endToEndKernel runs cloak + query + transmission model per op and
// reports the component split as custom metrics (us averages) — the
// stacked bars of Fig. 17.
func endToEndKernel(b *testing.B, w *experiments.World, anon anonymizer.Anonymizer, db *rtree.Tree, kind privacyqp.DataKind) {
	b.Helper()
	rng := rand.New(rand.NewSource(107))
	users := anon.Users()
	var cands int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uid := anonymizer.UserID(rng.Intn(users))
		cr, err := anon.Cloak(uid)
		if err != nil {
			cr.Region = w.Universe
		}
		res, err := privacyqp.PrivateNN(db, cr.Region, kind, privacyqp.Options{Filters: 4})
		if err != nil {
			b.Fatal(err)
		}
		cands += len(res.Candidates)
	}
	b.StopTimer()
	avgCand := float64(cands) / float64(b.N)
	b.ReportMetric(avgCand, "candidates/op")
	// Transmission: 64-byte records over 100 Mbps, microseconds.
	b.ReportMetric(avgCand*64*8/100e6*1e6, "transmit-us/op")
}

// BenchmarkFig17aEndToEndSmallK is Fig. 17a: end-to-end per-query cost
// for k groups up to [40-50]; ns/op covers cloak+query, and the
// transmit-us metric adds the modeled downlink.
func BenchmarkFig17aEndToEndSmallK(b *testing.B) {
	benchFig17(b, [][2]int{{1, 10}, {20, 30}, {40, 50}})
}

// BenchmarkFig17bEndToEndLargeK is Fig. 17b: k groups up to [150-200].
func BenchmarkFig17bEndToEndLargeK(b *testing.B) {
	benchFig17(b, [][2]int{{1, 10}, {90, 100}, {150, 200}})
}

func benchFig17(b *testing.B, groups [][2]int) {
	w := world()
	publicDB := w.PublicTree(w.P.Targets)
	privateDB := w.PrivateTree(w.P.Targets, w.P.PrivateCells)
	for _, g := range groups {
		profiles := w.MakeProfiles(w.P.Users, g, w.P.AminFrac)
		anon := w.BuildAdaptive(w.P.Levels, w.P.Users, profiles)
		b.Run(fmt.Sprintf("k=%d-%d/public", g[0], g[1]), func(b *testing.B) {
			endToEndKernel(b, w, anon, publicDB, privacyqp.PublicData)
		})
		b.Run(fmt.Sprintf("k=%d-%d/private", g[0], g[1]), func(b *testing.B) {
			endToEndKernel(b, w, anon, privateDB, privacyqp.PrivateData)
		})
	}
}

// BenchmarkAblationNeighborMerge is ablation A1: Algorithm 1 with and
// without the neighbor-combination step (k-accuracy metric).
func BenchmarkAblationNeighborMerge(b *testing.B) {
	w := world()
	basic := w.BuildBasic(w.P.Levels, w.P.Users, w.Profiles)
	for _, disabled := range []bool{false, true} {
		name := "with-merge"
		if disabled {
			name = "without-merge"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(109))
			sum, n := 0.0, 0
			for i := 0; i < b.N; i++ {
				pos := w.Initial[rng.Intn(len(w.Initial))]
				k := 20 + rng.Intn(30)
				cr, err := basic.CloakAtOpt(pos, anonymizer.Profile{K: k},
					anonymizer.CloakOpts{DisableNeighborMerge: disabled})
				if err != nil {
					continue
				}
				sum += float64(cr.KFound) / float64(k)
				n++
			}
			if n > 0 {
				b.ReportMetric(sum/float64(n), "k-accuracy")
			}
		})
	}
}

// BenchmarkAblationNaiveExtremes is ablation A2: the naive center-NN
// versus the candidate list; the correctness metric shows why the
// single-answer shortcut is not an option.
func BenchmarkAblationNaiveExtremes(b *testing.B) {
	w := world()
	db := w.PublicTree(w.P.Targets)
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	b.Run("naive-center", func(b *testing.B) {
		rng := rand.New(rand.NewSource(111))
		correct := 0
		for i := 0; i < b.N; i++ {
			uid := anonymizer.UserID(rng.Intn(w.P.Users))
			pos, _ := anon.Position(uid)
			cr, err := anon.Cloak(uid)
			if err != nil {
				continue
			}
			truth, _ := db.Nearest(pos, rtree.MinDist)
			naive, _ := privacyqp.NaiveCenterNN(db, cr.Region, privacyqp.PublicData)
			if naive.ID == truth.Item.ID {
				correct++
			}
		}
		b.ReportMetric(100*float64(correct)/float64(b.N), "correct-%")
	})
	b.Run("casper-candidates", func(b *testing.B) {
		rng := rand.New(rand.NewSource(111))
		bytes := 0
		for i := 0; i < b.N; i++ {
			uid := anonymizer.UserID(rng.Intn(w.P.Users))
			cr, err := anon.Cloak(uid)
			if err != nil {
				continue
			}
			res, err := privacyqp.PrivateNN(db, cr.Region, privacyqp.PublicData, privacyqp.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			bytes += len(res.Candidates) * 64
		}
		b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
	})
}

// BenchmarkAblationCloakerComparison is ablation A3: Casper's
// adaptive cloaker against the quadtree baseline (per-request time;
// the quadtree's population scan is the scalability wall).
func BenchmarkAblationCloakerComparison(b *testing.B) {
	w := world()
	n := w.P.Users
	if n > 5000 {
		n = 5000
	}
	for _, k := range []int{5, 20, 50} {
		profiles := w.MakeProfiles(n, [2]int{k, k}, [2]float64{0, 0})
		casperAnon := w.BuildAdaptive(w.P.Levels, n, profiles)
		b.Run(fmt.Sprintf("k=%d/casper", k), func(b *testing.B) {
			cloakKernel(b, casperAnon)
		})
		b.Run(fmt.Sprintf("k=%d/quadtree", k), func(b *testing.B) {
			quad := newQuadBaseline(w, n, k)
			rng := rand.New(rand.NewSource(113))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := quad.Cloak(int64(rng.Intn(n))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIndexComparison is ablation A4: the same private NN
// query over the R-tree and the uniform grid index.
func BenchmarkAblationIndexComparison(b *testing.B) {
	w := world()
	items := make([]rtree.Item, w.P.Targets)
	rng := rand.New(rand.NewSource(201))
	for i := range items {
		p := geom.Pt(rng.Float64()*w.Universe.Width(), rng.Float64()*w.Universe.Height())
		items[i] = rtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int64(i)}
	}
	tree := rtree.BulkLoad(append([]rtree.Item(nil), items...))
	grid := gridindex.New(w.Universe, 64)
	for _, it := range items {
		grid.Insert(it)
	}
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, 64)
	for _, ic := range []struct {
		name string
		db   privacyqp.SpatialIndex
	}{{"rtree", tree}, {"gridindex", grid}} {
		b.Run(ic.name, func(b *testing.B) {
			queryKernel(b, ic.db, cloaks, privacyqp.PublicData, 4)
		})
	}
}

// BenchmarkAblationWALOverhead is ablation A5: server upsert
// throughput with and without durability.
func BenchmarkAblationWALOverhead(b *testing.B) {
	w := world()
	regions := make([]geom.Rect, 4096)
	rng := rand.New(rand.NewSource(203))
	for i := range regions {
		x, y := rng.Float64()*w.Universe.Width()*0.9, rng.Float64()*w.Universe.Height()*0.9
		regions[i] = geom.R(x, y, x+200, y+200)
	}
	b.Run("in-memory", func(b *testing.B) {
		srv := server.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := srv.UpsertPrivate(server.PrivateObject{ID: int64(i % 500), Region: regions[i%len(regions)]}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wal-buffered", func(b *testing.B) {
		p, err := server.OpenPersistent(filepath.Join(b.TempDir(), "bench.wal"))
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.UpsertPrivate(server.PrivateObject{ID: int64(i % 500), Region: regions[i%len(regions)]}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkContinuousMonitorUpdate measures the incremental monitor's
// per-update cost with standing queries registered (the continuous
// extension; events counted as a custom metric).
func BenchmarkContinuousMonitorUpdate(b *testing.B) {
	w := world()
	rng := rand.New(rand.NewSource(205))
	events := 0
	mon := continuous.New(func(continuous.Event) { events++ })
	region := func() geom.Rect {
		x, y := rng.Float64()*w.Universe.Width()*0.9, rng.Float64()*w.Universe.Height()*0.9
		return geom.R(x, y, x+300, y+300)
	}
	for i := int64(0); i < 1000; i++ {
		if err := mon.ApplyUpdates([]continuous.PrivateUpdate{{ID: i, Region: region()}}); err != nil {
			b.Fatal(err)
		}
	}
	for q := 0; q < 8; q++ {
		if _, _, err := mon.RegisterRangeCount(region(), privacyqp.CountFractional); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := mon.RegisterNN(region(), privacyqp.PrivateData, privacyqp.DefaultOptions(), -1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := mon.ApplyUpdates([]continuous.PrivateUpdate{{ID: int64(i % 1000), Region: region()}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// --- Concurrency ------------------------------------------------------
//
// The remaining benchmarks are not paper figures: they measure the
// concurrent query path introduced by the reader/writer locking model
// (DESIGN.md, "Concurrency model"). Compare BenchmarkSerialNN against
// BenchmarkParallelNN at GOMAXPROCS >= 4 to see the speedup.

const concurrencyUsers = 1024

// concurrencyWorld builds one Casper instance sized so queries do real
// pyramid + R-tree work: a mid-size population over 1000 targets.
func concurrencyWorld(b *testing.B) *casper.Casper {
	b.Helper()
	cfg := casper.DefaultConfig()
	cfg.Universe = casper.R(0, 0, 10000, 10000)
	cfg.PyramidLevels = 8
	c := casper.MustNew(cfg)
	c.LoadPublicObjects(casper.UniformTargets(cfg.Universe, 1000, 3))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < concurrencyUsers; i++ {
		pos := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		maxK := 8
		if i+1 < maxK {
			maxK = i + 1
		}
		if err := c.RegisterUser(anonymizer.UserID(i), pos, anonymizer.Profile{K: 1 + rng.Intn(maxK)}); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkSerialNN is the single-goroutine baseline for
// BenchmarkParallelNN: same world, same query mix, no parallelism.
func BenchmarkSerialNN(b *testing.B) {
	c := concurrencyWorld(b)
	defer c.Close()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.NearestPublic(anonymizer.UserID(i % concurrencyUsers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelNN runs the private NN pipeline from GOMAXPROCS
// goroutines against one shared Casper instance.
func BenchmarkParallelNN(b *testing.B) {
	c := concurrencyWorld(b)
	defer c.Close()
	var lane int64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		// Stride the lanes apart so goroutines touch different users.
		i := atomic.AddInt64(&lane, 1) * 7919
		for pb.Next() {
			i++
			if _, err := c.NearestPublic(anonymizer.UserID(i % concurrencyUsers)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSerialUpdates is the single-goroutine update baseline:
// every operation is a location update + re-cloak + server upsert.
func BenchmarkSerialUpdates(b *testing.B) {
	c := concurrencyWorld(b)
	defer c.Close()
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uid := anonymizer.UserID(i % concurrencyUsers)
		pos := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		if err := c.UpdateUser(uid, pos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelUpdates hammers the write path from GOMAXPROCS
// goroutines: the same update + re-cloak + server upsert as
// BenchmarkSerialUpdates. The default adaptive anonymizer applies
// updates behind one write lock, so against the serial baseline this
// measures what that lock costs under contention, not a speedup.
func BenchmarkParallelUpdates(b *testing.B) {
	c := concurrencyWorld(b)
	defer c.Close()
	var lane int64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		seed := atomic.AddInt64(&lane, 1)
		rng := rand.New(rand.NewSource(seed))
		i := seed * 7919
		for pb.Next() {
			i++
			uid := anonymizer.UserID(i % concurrencyUsers)
			pos := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			if err := c.UpdateUser(uid, pos); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchUpdates measures the batched write path: 64 updates
// per UpdateUsers call — one server write lock and one cache-version
// bump per batch instead of per update. Each op is one user update, so
// ns/op is directly comparable to BenchmarkSerialUpdates.
func BenchmarkBatchUpdates(b *testing.B) {
	const batchSize = 64
	c := concurrencyWorld(b)
	defer c.Close()
	rng := rand.New(rand.NewSource(7))
	batch := make([]casper.UserUpdate, batchSize)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = casper.UserUpdate{
				UID: anonymizer.UserID((i + j) % concurrencyUsers),
				Pos: geom.Pt(rng.Float64()*10000, rng.Float64()*10000),
			}
		}
		if _, err := c.UpdateUsers(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBatchUpdates runs the batched path from GOMAXPROCS
// goroutines: the fleet-client shape, many uplinks each carrying
// update_batch frames. ns/op is per user update.
func BenchmarkParallelBatchUpdates(b *testing.B) {
	const batchSize = 64
	c := concurrencyWorld(b)
	defer c.Close()
	var lane int64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		seed := atomic.AddInt64(&lane, 1)
		rng := rand.New(rand.NewSource(seed))
		i := seed * 7919
		batch := make([]casper.UserUpdate, 0, batchSize)
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			_, err := c.UpdateUsers(batch)
			if err != nil {
				b.Error(err)
				return false
			}
			batch = batch[:0]
			return true
		}
		for pb.Next() {
			i++
			batch = append(batch, casper.UserUpdate{
				UID: anonymizer.UserID(i % concurrencyUsers),
				Pos: geom.Pt(rng.Float64()*10000, rng.Float64()*10000),
			})
			if len(batch) == batchSize && !flush() {
				return
			}
		}
		flush()
	})
}

// --- Query path: snapshot isolation + scratch arena ------------------
//
// BenchmarkNN/KNN/Range time the privacyqp kernels directly (no server
// wrapper) with ReportAllocs; the *Baseline variants disable the
// pooled scratch arena to reconstruct the fresh-buffers-per-query
// allocation profile the kernels had before the arena existed. The
// allocs/op ratio is the headline for the zero-allocation work (see
// BENCH_queries.json, target >= 50% reduction).

func nnQueryKernel(b *testing.B) {
	w := world()
	db := w.PublicTree(w.P.Targets)
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, 64)
	opt := privacyqp.DefaultOptions()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := privacyqp.PrivateNN(db, cloaks[i%len(cloaks)], privacyqp.PublicData, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func knnQueryKernel(b *testing.B) {
	w := world()
	db := w.PublicTree(w.P.Targets)
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, 64)
	opt := privacyqp.DefaultOptions()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := privacyqp.PrivateKNN(db, cloaks[i%len(cloaks)], 4, privacyqp.PublicData, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func rangeQueryKernel(b *testing.B) {
	w := world()
	db := w.PublicTree(w.P.Targets)
	anon := w.BuildAdaptive(w.P.Levels, w.P.Users, w.Profiles)
	cloaks := w.SampleCloaks(anon, 64)
	radius := w.Universe.Width() / 50
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := privacyqp.PrivateRange(db, cloaks[i%len(cloaks)], radius, privacyqp.PublicData); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNN is the private NN kernel with the scratch arena on.
func BenchmarkNN(b *testing.B) { nnQueryKernel(b) }

// BenchmarkNNBaseline reruns BenchmarkNN with the pooled scratch arena
// disabled: every query allocates fresh heap/neighbor/candidate
// buffers, as the kernel did before this optimization.
func BenchmarkNNBaseline(b *testing.B) {
	prev := privacyqp.SetScratchReuse(false)
	defer privacyqp.SetScratchReuse(prev)
	nnQueryKernel(b)
}

// BenchmarkKNN is the private k-NN kernel (k=4) with the arena on.
func BenchmarkKNN(b *testing.B) { knnQueryKernel(b) }

// BenchmarkKNNBaseline is BenchmarkKNN without the arena.
func BenchmarkKNNBaseline(b *testing.B) {
	prev := privacyqp.SetScratchReuse(false)
	defer privacyqp.SetScratchReuse(prev)
	knnQueryKernel(b)
}

// BenchmarkRange is the private range kernel with the arena on.
func BenchmarkRange(b *testing.B) { rangeQueryKernel(b) }

// BenchmarkRangeBaseline is BenchmarkRange without the arena.
func BenchmarkRangeBaseline(b *testing.B) {
	prev := privacyqp.SetScratchReuse(false)
	defer privacyqp.SetScratchReuse(prev)
	rangeQueryKernel(b)
}

// BenchmarkParallelNNUnderUpdates is the query-vs-update contention
// benchmark: GOMAXPROCS query goroutines run the NN pipeline while a
// background writer continuously applies 64-entry UpdateUsers batches.
// With snapshot isolation the queries never block behind the writer —
// compare against BenchmarkParallelNNRWMutexUnderUpdates (the
// pre-snapshot RWMutex discipline reconstructed around the same
// instance) and against plain BenchmarkParallelNN (no writer at all).
func BenchmarkParallelNNUnderUpdates(b *testing.B) {
	c := concurrencyWorld(b)
	defer c.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(17))
		batch := make([]casper.UserUpdate, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for j := range batch {
				batch[j] = casper.UserUpdate{
					UID: anonymizer.UserID(rng.Intn(concurrencyUsers)),
					Pos: geom.Pt(rng.Float64()*10000, rng.Float64()*10000),
				}
			}
			if _, err := c.UpdateUsers(batch); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var lane int64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := atomic.AddInt64(&lane, 1) * 7919
		for pb.Next() {
			i++
			if _, err := c.NearestPublic(anonymizer.UserID(i % concurrencyUsers)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkParallelNNRWMutexUnderUpdates reconstructs the pre-snapshot
// read model live: the same contention workload, but queries take a
// reader lock and the update batches take the writer lock — the
// discipline Server used before indexes became immutable snapshots.
func BenchmarkParallelNNRWMutexUnderUpdates(b *testing.B) {
	c := concurrencyWorld(b)
	defer c.Close()
	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(17))
		batch := make([]casper.UserUpdate, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for j := range batch {
				batch[j] = casper.UserUpdate{
					UID: anonymizer.UserID(rng.Intn(concurrencyUsers)),
					Pos: geom.Pt(rng.Float64()*10000, rng.Float64()*10000),
				}
			}
			mu.Lock()
			_, err := c.UpdateUsers(batch)
			mu.Unlock()
			if err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var lane int64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := atomic.AddInt64(&lane, 1) * 7919
		for pb.Next() {
			i++
			mu.RLock()
			_, err := c.NearestPublic(anonymizer.UserID(i % concurrencyUsers))
			mu.RUnlock()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkParallelMixed interleaves location updates (writers, which
// re-cloak and hit the anonymizer's write lock) with NN queries
// (readers), one update per eight operations.
func BenchmarkParallelMixed(b *testing.B) {
	c := concurrencyWorld(b)
	defer c.Close()
	var lane int64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		seed := atomic.AddInt64(&lane, 1)
		rng := rand.New(rand.NewSource(seed))
		i := seed * 7919
		for pb.Next() {
			i++
			uid := anonymizer.UserID(i % concurrencyUsers)
			if i%8 == 0 {
				pos := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
				if err := c.UpdateUser(uid, pos); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if _, err := c.NearestPublic(uid); err != nil {
				b.Fatal(err)
			}
		}
	})
}
