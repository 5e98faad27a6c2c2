package runtime

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/geom"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// requireScaleBench gates the expensive scale suite (100k-node setups)
// behind SELFSTAB_SCALE_BENCH=1 so a plain `go test -bench .` over the
// package stays minutes, not tens of minutes. scripts/bench.sh sets it
// for the BENCH_scale.json section, as does the CI scale smoke.
func requireScaleBench(b *testing.B) {
	b.Helper()
	if os.Getenv("SELFSTAB_SCALE_BENCH") == "" {
		b.Skip("set SELFSTAB_SCALE_BENCH=1 to run the scale suite (see scripts/bench.sh)")
	}
}

// scalePoints deploys n uniform nodes with the radio range chosen for a
// mean degree of ~10, so per-node local work is constant across scales
// and the benchmarks isolate the engine's N-dependence.
func scalePoints(seed int64, n int) ([]geom.Point, []int64, float64) {
	src := rng.New(seed)
	pts := make([]geom.Point, n)
	ids := make([]int64, n)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
		ids[i] = int64(i)
	}
	r := math.Sqrt(10 / (math.Pi * float64(n)))
	return pts, ids, r
}

func stableScaleEngine(b *testing.B, n int, sparse bool) *Engine {
	b.Helper()
	pts, ids, r := scalePoints(int64(n), n)
	g := topology.FromPoints(pts, r)
	e, err := New(g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(int64(n)))
	if err != nil {
		b.Fatal(err)
	}
	if err := e.SetSparse(sparse); err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunUntilStable(5000, 5); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkQuiescentStep measures a stabilized network's step at 1k,
// 10k and 100k nodes under frontier stepping. The acceptance criterion of
// the scale work is that these stay roughly flat in N (O(frontier), and
// the frontier is empty) with steady-state allocs/op ≤ 2; compare
// BenchmarkQuiescentStepDense1k for the O(N) full-scan baseline the
// 100k cost would otherwise extrapolate from.
func BenchmarkQuiescentStep(b *testing.B) {
	requireScaleBench(b)
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := stableScaleEngine(b, n, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuiescentStepDense1k is the full-scan cost of the same
// quiescent step at 1k nodes — multiply by N/1000 for the extrapolated
// dense cost the frontier engine is measured against.
func BenchmarkQuiescentStepDense1k(b *testing.B) {
	requireScaleBench(b)
	e := stableScaleEngine(b, 1_000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep100k measures a locally perturbed step at 100k nodes:
// each step, 100 spread-out nodes change their density scale (the
// energy-rotation write path), so the frontier holds those nodes plus
// their radio neighborhoods while the other ~99.9% of the network is
// skipped.
func BenchmarkStep100k(b *testing.B) {
	requireScaleBench(b)
	const n = 100_000
	e := stableScaleEngine(b, n, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perturbedStep(b, e, n, 100, i)
	}
	b.StopTimer()
	// Live heap for the whole stabilized world — the 1M scenario's
	// memory budget is quoted relative to this footprint.
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heapMB")
}

// perturbedStep is the BenchmarkStep100k workload body: k spread-out
// density-scale writes followed by one step, alternating the scale so
// every iteration does real guard work.
func perturbedStep(b *testing.B, e *Engine, n, k, i int) {
	s := 0.875
	if i%2 == 1 {
		s = 1.0
	}
	for j := 0; j < k; j++ {
		if err := e.SetDensityScale((j*997+13)%n, s); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Step(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStep100kFrontier is BenchmarkStep100k across a worklist-size
// sweep: k nodes re-scaled per step, from the local perturbation (k=100)
// up to a frontier that, with the nodes the previous step re-armed, pends
// most of the population (k=45000). Every k runs the one step shape: the
// expanded worklist visited in ascending slot order. A step's cost follows
// the visit list, ≈ |pend|·(1 + deg) until it covers the population, so
// the row should rise with k and flatten where the list saturates.
func BenchmarkStep100kFrontier(b *testing.B) {
	requireScaleBench(b)
	const n = 100_000
	for _, k := range []int{100, 5_000, 20_000, 45_000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			e := stableScaleEngine(b, n, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perturbedStep(b, e, n, k, i)
			}
		})
	}
}

// BenchmarkStepSaturated pins the saturated node set: ActivateAll pends
// the whole population before every step, so the visit list is every
// alive node in slot order and expand skips the neighborhood walk. The
// step has nothing to do, so the row is what worklist bookkeeping costs
// on top of a scan of every node.
func BenchmarkStepSaturated(b *testing.B) {
	requireScaleBench(b)
	const n = 10_000
	e := stableScaleEngine(b, n, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ActivateAll()
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHealRound10k is the dense recovery path end to end: every node
// of a stabilized 10k world is corrupted (state and cache), then the
// engine runs until stable again. One op is one whole round — a few dozen
// saturated steps in which every cache entry is re-heard, every link
// count recounted and every frame republished — so it is the
// micro-benchmark row for the work BenchmarkStepSaturated's clean,
// nothing-to-do scan leaves out. The saturated step is also the only
// regime with enough work per step to occupy a second core, so the row
// is recorded at one and two workers: their ratio is the committed
// verdict on what the worker pool buys.
func BenchmarkHealRound10k(b *testing.B) {
	requireScaleBench(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := stableScaleEngine(b, 10_000, true)
			e.SetParallelism(workers)
			faults := rng.New(10_001)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Corrupt(1.0, CorruptAll, faults)
				if _, err := e.RunUntilStable(5000, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStep1M is the million-node tentpole scenario: the perturbed
// step at n=1,000,000, with the post-setup heap reported so the memory
// diet (interned neighbor identifier lists: O(deg) per node instead of
// O(deg²)) shows up next to the step time. Gated twice —
// SELFSTAB_SCALE_BENCH_1M on top of the scale gate — because setup alone
// costs tens of seconds and over a gigabyte; the CI smoke tier never runs it.
func BenchmarkStep1M(b *testing.B) {
	requireScaleBench(b)
	if os.Getenv("SELFSTAB_SCALE_BENCH_1M") == "" {
		b.Skip("set SELFSTAB_SCALE_BENCH_1M=1 to run the million-node scenario")
	}
	const n = 1_000_000
	e := stableScaleEngine(b, n, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perturbedStep(b, e, n, 100, i)
	}
	b.StopTimer()
	// After ResetTimer (which clears custom metrics), report the live
	// heap holding the whole stabilized world — the memory-budget number.
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heapMB")
}

// BenchmarkCompact measures dead-slot recycling at 10k nodes with 20%
// dead: the grid/graph compaction plus the engine's remap. Setup (a
// fresh engine with freshly killed slots per iteration) is untimed.
func BenchmarkCompact(b *testing.B) {
	requireScaleBench(b)
	const n = 10_000
	pts, ids, r := scalePoints(n, n)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gi := topology.NewGridIndexInRegion(pts, r, geom.UnitSquare())
		e, err := New(gi.Graph(), ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(n))
		if err != nil {
			b.Fatal(err)
		}
		if err := runSteps(e, 3); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < n/5; k++ {
			v := (k*4999 + 7) % n
			if e.Status(v) != StatusAlive {
				continue
			}
			if err := e.Kill(v); err != nil {
				b.Fatal(err)
			}
			gi.Deactivate(v)
		}
		b.StartTimer()
		r := e.CompactionRemap()
		if r.Dropped() == 0 {
			b.Fatal("nothing to compact")
		}
		if err := gi.Compact(r); err != nil {
			b.Fatal(err)
		}
		if err := e.Compact(r); err != nil {
			b.Fatal(err)
		}
	}
}
