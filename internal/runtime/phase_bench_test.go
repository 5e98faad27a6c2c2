package runtime

import (
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/obs"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
)

// BenchmarkPhaseBreakdown attributes the paper-scale step cost to its
// phases: each sub-benchmark steps a 1000-node dense-path engine with a
// collector attached and reports that phase's mean wall time per step as
// its ns/op. The rows land in BENCH_step.json next to the whole-step
// benchmarks, so the per-phase trajectory is recorded alongside the
// total. The names deliberately avoid "Step": these are attribution
// rows, not step-time medians for the regression gate.
func BenchmarkPhaseBreakdown(b *testing.B) {
	for _, p := range []obs.Phase{obs.PhaseChurn, obs.PhaseFrame, obs.PhaseIngest} {
		b.Run("phase="+p.String(), func(b *testing.B) {
			g, ids := randomNetwork(1, 1000, 0.1)
			e, err := New(g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			// The dense path runs every phase every step, so each sample
			// attributes the same work BenchmarkStep1000 measures whole.
			if err := e.SetSparse(false); err != nil {
				b.Fatal(err)
			}
			if err := runSteps(e, 5); err != nil {
				b.Fatal(err)
			}
			c := obs.NewCollector(1)
			e.SetProbe(c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			m := c.Metrics()
			if got := m.Phases[p].Count; got != int64(b.N) {
				b.Fatalf("phase %v observed %d times over %d steps", p, got, b.N)
			}
			b.ReportMetric(float64(m.Phases[p].SumNs)/float64(b.N), "ns/op")
		})
	}
}
