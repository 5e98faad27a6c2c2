package topology

import (
	"testing"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
)

func benchPoints(n int, seed int64) []geom.Point {
	src := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
	}
	return pts
}

// BenchmarkFromPoints1000 is the paper-scale unit-disk construction
// (lambda = 1000, R = 0.1): the per-run setup cost of every experiment.
func BenchmarkFromPoints1000(b *testing.B) {
	pts := benchPoints(1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromPoints(pts, 0.1)
	}
}

// BenchmarkClosedNeighborhoodLinks is the density numerator, evaluated for
// every node — the metric layer's hot loop.
func BenchmarkClosedNeighborhoodLinks(b *testing.B) {
	g := FromPoints(benchPoints(1000, 2), 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < g.N(); u++ {
			g.ClosedNeighborhoodLinks(u)
		}
	}
}
