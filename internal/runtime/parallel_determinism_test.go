package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/metric"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
)

// TestParallelDeterminism is the contract the parallel step engine must
// honor: for a fixed seed, Snapshot trajectories are bit-identical
// regardless of worker count — under the perfect and the Bernoulli medium,
// with the DAG's per-node color draws, and with a randomized daemon
// (ActivationProb < 1) whose scheduling draws must stay ordered. The root
// determinism matrix replays Network journals; this test drives the engine
// alone, with no Network layer between, and compares it every 15 steps.
func TestParallelDeterminism(t *testing.T) {
	type scenario struct {
		name       string
		bernoulli  bool
		activation float64
	}
	scenarios := []scenario{
		{"perfect/sync", false, 1},
		{"perfect/daemon0.6", false, 0.6},
		{"bernoulli0.7/sync", true, 1},
		{"bernoulli0.7/daemon0.6", true, 0.6},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			g, ids := randomNetwork(33, 300, 0.12)
			proto := Protocol{
				Order:          cluster.OrderBasic,
				UseDag:         true,
				Gamma:          int64(g.MaxDegree()*g.MaxDegree() + 1),
				ActivationProb: sc.activation,
				CacheTTL:       4,
			}
			build := func(workers int) *Engine {
				var m radio.Medium = radio.Perfect{}
				if sc.bernoulli {
					var err error
					m, err = radio.NewBernoulli(0.7, rng.New(42))
					if err != nil {
						t.Fatal(err)
					}
				}
				e := mustEngine(t, g, ids, proto, m, 4242)
				e.SetParallelism(workers)
				return e
			}
			// GOMAXPROCS-shaped worker counts: forced sequential vs a
			// 4-worker pool (forEach honors the explicit setting even
			// on a single-core host, so the concurrent path really runs).
			e1 := build(1)
			e4 := build(4)
			for phase := 0; phase < 3; phase++ {
				if err := runSteps(e1, 15); err != nil {
					t.Fatal(err)
				}
				if err := runSteps(e4, 15); err != nil {
					t.Fatal(err)
				}
				s1, s4 := e1.Snapshot(), e4.Snapshot()
				for u := range s1.HeadID {
					if s1.TieID[u] != s4.TieID[u] || s1.Density[u] != s4.Density[u] ||
						s1.HeadID[u] != s4.HeadID[u] || s1.Parent[u] != s4.Parent[u] {
						t.Fatalf("phase %d: node %d diverged between 1 and 4 workers", phase, u)
					}
				}
			}
		})
	}
}

// TestForEachVisitsEachNodeOnce sweeps visit-list lengths against worker
// counts up to the many-core shapes (chunks·(chunks−1) > n) where a
// rounded-up chunk size would start the last chunks past the list's end.
// The root determinism matrix runs 1 and 4 workers over worlds of a few
// hundred nodes; the chunk boundaries of every length at 13, 16 and 64
// workers are only swept here.
func TestForEachVisitsEachNodeOnce(t *testing.T) {
	g, ids := randomNetwork(3, 10, 0.3)
	e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 1)
	for _, workers := range []int{2, 13, 16, 64} {
		e.SetParallelism(workers)
		e.exec = e.exec[:0]
		for n := 1; n < parallelThreshold+300; n++ {
			e.exec = append(e.exec, int32(n-1)) // the visit list is 0..n-1
			seen := make([]int32, n)
			e.forEach(func(_ *Engine, i int) bool { seen[i]++; return false })
			if i := slices.IndexFunc(seen, func(c int32) bool { return c != 1 }); i >= 0 {
				t.Fatalf("workers %d, n %d: node %d visited %d times", workers, n, i, seen[i])
			}
		}
	}
}

// TestRootFanOutIsParallelThreshold: the root determinism matrix fails a
// trace whose widest step visits fewer than fanOut nodes, because below
// parallelThreshold its 4-worker cells never split a phase. It cannot
// see this package's constant, so it keeps a copy, and this test reads
// that copy.
func TestRootFanOutIsParallelThreshold(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "determinism_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("const fanOut = %d\n", parallelThreshold); !strings.Contains(string(src), want) {
		t.Fatalf("determinism_test.go does not declare %q", strings.TrimSpace(want))
	}
}

// TestDirtyTrackingMatchesSnapshotCompare cross-checks the guards'
// change-reporting (which RunUntilStable trusts) against the brute-force
// method: snapshotting the shared state around every step and comparing.
func TestDirtyTrackingMatchesSnapshotCompare(t *testing.T) {
	g, ids := randomNetwork(77, 120, 0.15)
	protos := map[string]Protocol{
		"no-dag": {Order: cluster.OrderBasic, ActivationProb: 0.7, CacheTTL: 3},
		// A barely-legal gamma makes N1 color conflicts (and occasional
		// failed redraws, which must not be miscounted) common.
		"dag-tight-gamma": {Order: cluster.OrderBasic, ActivationProb: 0.7, CacheTTL: 3,
			UseDag: true, Gamma: int64(g.MaxDegree() + 2)},
	}
	for name, proto := range protos {
		t.Run(name, func(t *testing.T) {
			m, err := radio.NewBernoulli(0.8, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			e := mustEngine(t, g, ids, proto, m, 505)
			sawQuiet := false
			for s := 0; s < 120; s++ {
				if s%40 == 20 {
					// Mid-run corruption: the flag must pick the churn
					// back up (and, with the DAG, drive out-of-range
					// color normalizations through guardN1).
					e.Corrupt(0.3, CorruptAll, rng.New(506+int64(s)))
				}
				before := e.sharedState()
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				after := e.sharedState()
				changed := e.LastChange() == e.StepCount()
				if want := !statesEqual(before, after); changed != want {
					t.Fatalf("step %d: step reported changed = %v, snapshot compare says %v", s, changed, want)
				}
				if !changed {
					sawQuiet = true
				}
			}
			if !sawQuiet {
				t.Log("warning: no quiescent step observed; dirty-path not exercised")
			}
		})
	}
}

// TestGuardSkippingIsOutputEquivalent: the dirty-flag machinery must be
// invisible — an engine that is forced to rebuild every frame and evaluate
// every guard each step (the seed engine's behavior) must produce a
// bit-identical trajectory. Fusion + loss + TTL + daemon maximizes the
// 2-hop propagation paths where a stale relayed value would show; the
// unfused run pins the narrower publish rule (identifiers only) and the
// cached link count against the same always-recount reference.
func TestGuardSkippingIsOutputEquivalent(t *testing.T) {
	for _, fusion := range []bool{true, false} {
		t.Run(fmt.Sprintf("fusion=%v", fusion), func(t *testing.T) {
			guardSkippingIsOutputEquivalent(t, fusion)
		})
	}
}

func guardSkippingIsOutputEquivalent(t *testing.T, fusion bool) {
	g, ids := randomNetwork(55, 150, 0.14)
	proto := Protocol{Order: cluster.OrderSticky, Fusion: fusion, CacheTTL: 5, ActivationProb: 0.8}
	build := func() *Engine {
		m, err := radio.NewBernoulli(0.85, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return mustEngine(t, g, ids, proto, m, 777)
	}
	fast := build()
	ref := build()
	// Partial corruption every few steps keeps shared densities churning,
	// so relayed 2-hop values keep changing inside otherwise-quiet
	// neighborhoods — exactly the traffic a stale frame cache would get
	// wrong. Both engines consume identical corruption streams.
	cf, cr := rng.New(99), rng.New(99)
	want := make([]Frame, len(fast.nodes))
	for s := 0; s < 80; s++ {
		if s%7 == 3 {
			fast.Corrupt(0.15, CorruptState, cf)
			ref.Corrupt(0.15, CorruptState, cr)
		}
		// What each node must broadcast this step: a frame assembled fresh
		// from its current state, the way the seed engine built one every
		// step unconditionally.
		for i, n := range fast.nodes {
			n.fillFrame(&want[i], fast.proto.Fusion)
		}
		if err := fast.Step(); err != nil {
			t.Fatal(err)
		}
		// The scratch the engine actually broadcast from must match — a
		// skipped refill is only legal when the content is identical.
		for i := range want {
			got := &fast.out[i]
			if got.ID != want[i].ID || got.TieID != want[i].TieID ||
				got.Density != want[i].Density || got.HeadID != want[i].HeadID ||
				!slices.Equal(got.Nbrs.ids(), want[i].Nbrs.ids()) || !slices.Equal(got.Nbrs.vals(), want[i].Nbrs.vals()) {
				t.Fatalf("step %d: node %d broadcast a stale frame", s, i)
			}
			if !fusion && got.Nbrs.vals() != nil {
				t.Fatalf("step %d: node %d relays values no guard reads", s, i)
			}
		}
		for _, n := range ref.nodes {
			n.dirty, n.frameDirty, n.linksOK = true, true, false // disable all skipping
		}
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		sf, sr := fast.Snapshot(), ref.Snapshot()
		for u := range sf.HeadID {
			if sf.TieID[u] != sr.TieID[u] || sf.Density[u] != sr.Density[u] ||
				sf.HeadID[u] != sr.HeadID[u] || sf.Parent[u] != sr.Parent[u] {
				t.Fatalf("step %d: node %d diverged from the never-skip reference", s, u)
			}
		}
	}
}

// TestGuardR1MatchesDensityOracle pins guardR1's merge-scan edge counting
// to metric.DensityFromTables, the Definition 1 oracle it replaced on the
// hot path — if either side's handling of advertised neighbor lists ever
// changes, this is the test that catches the drift. Loss, TTL eviction
// and corruption keep the caches messy (stale, asymmetric, garbage ids).
func TestGuardR1MatchesDensityOracle(t *testing.T) {
	g, ids := randomNetwork(88, 100, 0.16)
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 2}
	m, err := radio.NewBernoulli(0.6, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, g, ids, proto, m, 808)
	for s := 0; s < 40; s++ {
		if s%11 == 5 {
			e.Corrupt(0.4, CorruptAll, rng.New(809+int64(s)))
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		for i, n := range e.nodes {
			own := make([]int64, 0, len(n.cache))
			lists := make(map[int64][]int64, len(n.cache))
			for j := range n.cache {
				f := &n.cache[j].frame
				own = append(own, f.ID)
				lists[f.ID] = f.Nbrs.ids()
			}
			// The daemon is synchronous here, so guardR1 ran this step on
			// every dirty node; force one evaluation on the current cache
			// to compare against the oracle regardless of skipping.
			n.guardR1(1)
			if want := metric.DensityFromTables(n.id, own, lists); n.density != want {
				t.Fatalf("step %d: node %d guardR1 density %v, oracle %v", s, i, n.density, want)
			}
			n.dirty, n.frameDirty = true, true // undo the forced evaluation's bookkeeping
		}
	}
}

// TestStatesEqualLengthGuard: a length mismatch must compare unequal, not
// panic (node counts can change under future churn support).
func TestStatesEqualLengthGuard(t *testing.T) {
	a := []sharedVars{{tieID: 1}}
	b := []sharedVars{{tieID: 1}, {tieID: 2}}
	if statesEqual(a, b) {
		t.Error("length mismatch reported equal")
	}
	if statesEqual(b, a) {
		t.Error("length mismatch reported equal (swapped)")
	}
	if !statesEqual(a, a) {
		t.Error("identical state reported unequal")
	}
}

// TestParallelMatchesSequentialStabilization: the stabilization step index
// — not just the final state — must agree across worker counts. The root
// determinism matrix compares LastChange on one sticky + fusion trace;
// this test asks RunUntilStable itself, from three cold starts.
func TestParallelMatchesSequentialStabilization(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g, ids := randomNetwork(200+seed, 200, 0.12)
		run := func(workers int) (int, Snapshot) {
			e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderSticky, Fusion: true}, radio.Perfect{}, 900+seed)
			e.SetParallelism(workers)
			at, err := e.RunUntilStable(1000, 5)
			if err != nil {
				t.Fatal(err)
			}
			return at, e.Snapshot()
		}
		at1, s1 := run(1)
		at4, s4 := run(4)
		if at1 != at4 {
			t.Fatalf("seed %d: stabilized at step %d with 1 worker, %d with 4", seed, at1, at4)
		}
		for u := range s1.HeadID {
			if s1.HeadID[u] != s4.HeadID[u] {
				t.Fatalf("seed %d: node %d head diverged", seed, u)
			}
		}
	}
}

// sharedVars is the per-node shared variable tuple the tests below diff
// to cross-check the engine's own change tracking (the step path tracks
// changes in the guards instead of snapshotting).
type sharedVars struct {
	tieID   int64
	density float64
	headID  int64
	parent  int64
}

func (e *Engine) sharedState() []sharedVars {
	s := make([]sharedVars, len(e.nodes))
	for i, n := range e.nodes {
		s[i] = sharedVars{tieID: n.tieID, density: n.density, headID: n.headID, parent: n.parent}
	}
	return s
}

func statesEqual(a, b []sharedVars) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
