package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkCompute1000 is the fixpoint oracle at paper scale.
func BenchmarkCompute1000(b *testing.B) {
	g, cfg := randomInstance(1, 1000, 0.1, OrderBasic, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompute1000Fusion adds the 2-hop fusion guard.
func BenchmarkCompute1000Fusion(b *testing.B) {
	g, cfg := randomInstance(2, 1000, 0.1, OrderBasic, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSizes are the populations the two whole-assignment scans are
// measured at: the paper's scale and the bench/ harness's 50 000 nodes,
// both at mean degree ~30. The larger row is the one that shows a cost
// growing with clusters × N instead of N + E.
var benchSizes = []struct {
	n int
	r float64
}{{1000, 0.1}, {50000, 0.0141}}

// BenchmarkComputeStats measures the Tables 4/5 statistics extraction.
func BenchmarkComputeStats(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", sz.n), func(b *testing.B) {
			g, cfg := randomInstance(3, sz.n, sz.r, OrderBasic, false)
			a, err := Compute(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ComputeStats(g)
			}
		})
	}
}

// BenchmarkMaxMin is the baseline clusterer at paper scale.
func BenchmarkMaxMin(b *testing.B) {
	g, cfg := randomInstance(4, 1000, 0.1, OrderBasic, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMin(g, cfg.TieIDs, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckInvariants measures the legitimacy predicate.
func BenchmarkCheckInvariants(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", sz.n), func(b *testing.B) {
			g, cfg := randomInstance(5, sz.n, sz.r, OrderBasic, false)
			a, err := Compute(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := CheckInvariants(g, a, false, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
