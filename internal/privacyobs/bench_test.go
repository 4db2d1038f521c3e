package privacyobs

import (
	"fmt"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/geom"
)

// BenchmarkRelease is the observatory's whole hot-path cost: what
// every released cloak pays on top of the cloaking algorithm itself,
// the ε-ceiling check and the casper_cloak_* samples included.
// The existing-user path must not allocate — the DESIGN.md overhead
// budget (≤5% of a cloak) depends on it.
func BenchmarkRelease(b *testing.B) {
	bench := func(b *testing.B, cr anonymizer.CloakedRegion) {
		o := New()
		o.Release("bench", 1, cr, 0, nil) // create the user up front
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Release("bench", int64(i%64), cr, 0, nil)
		}
	}
	b.Run("region", func(b *testing.B) {
		bench(b, anonymizer.CloakedRegion{
			Region:     geom.R(10, 10, 20, 20),
			KFound:     8,
			KRequested: 5,
			Mechanism:  anonymizer.MechRegion,
		})
	})
	b.Run("perturbed", func(b *testing.B) {
		bench(b, anonymizer.CloakedRegion{
			Region:    geom.R(10, 10, 20, 20),
			Mechanism: anonymizer.MechPerturbed,
			Epsilon:   0.01,
		})
	})
}

// BenchmarkSnapshot is the scrape-path cost (metrics GaugeFuncs and
// /debug/stats), with a populated observer: 1,000 tracked users, and
// 20,000 — the benchmark workloads' population.
func BenchmarkSnapshot(b *testing.B) {
	for _, users := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			o := New()
			for i := 0; i < 5*users; i++ {
				o.Release("bench-snap", int64(i%users), anonymizer.CloakedRegion{
					Region:     geom.R(float64(i%30), 0, float64(i%30)+10, 10),
					KFound:     5 + i%10,
					KRequested: 5,
					Mechanism:  anonymizer.MechRegion,
				}, 0, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Snapshot()
			}
		})
	}
}
