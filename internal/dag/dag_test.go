package dag

import (
	"sort"
	"testing"

	"selfstab/internal/deploy"
	"selfstab/internal/geom"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

func randomGeometric(seed int64, n int, r float64) (*topology.Graph, []int64) {
	src := rng.New(seed)
	pts := deploy.Uniform(n, geom.UnitSquare(), src)
	return topology.FromPoints(pts, r), deploy.AssignIDs(pts, deploy.IDRandom, src)
}

// locallyUnique reports whether no two adjacent nodes share a color.
func locallyUnique(g *topology.Graph, colors []int64) bool {
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if v > u && colors[v] == colors[u] {
				return false
			}
		}
	}
	return true
}

func TestBuildProducesLocallyUniqueColors(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, ids := randomGeometric(seed, 100, 0.15)
		gamma := int64(g.MaxDegree()*g.MaxDegree() + 1)
		res, err := Build(g, ids, gamma, 100, rng.New(seed+1000))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !locallyUnique(g, res.Colors) {
			t.Errorf("seed %d: colors not locally unique", seed)
		}
		for u, c := range res.Colors {
			if c < 0 || c >= gamma {
				t.Errorf("seed %d: color %d of node %d outside gamma", seed, c, u)
			}
		}
	}
}

// TestBuildStepsSmall reproduces the shape of Table 3: the expected number
// of steps is a small constant (the paper reports ~2 on 1000-node
// deployments).
func TestBuildStepsSmall(t *testing.T) {
	total := 0
	const runs = 30
	for seed := int64(0); seed < runs; seed++ {
		g, ids := randomGeometric(seed, 200, 0.1)
		gamma := int64(g.MaxDegree()*g.MaxDegree() + 1)
		res, err := Build(g, ids, gamma, 100, rng.New(seed+2000))
		if err != nil {
			t.Fatal(err)
		}
		total += res.Steps
	}
	mean := float64(total) / runs
	if mean < 1 || mean > 4 {
		t.Errorf("mean DAG construction steps = %v, want a small constant (~2)", mean)
	}
}

func TestBuildValidation(t *testing.T) {
	g := topology.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, []int64{1, 2}, 10, 100, rng.New(1)); err == nil {
		t.Error("short ids accepted")
	}
	if _, err := Build(g, []int64{1, 2, 3}, 1, 100, rng.New(1)); err == nil {
		t.Error("gamma <= max degree accepted")
	}
}

func TestBuildSingleNode(t *testing.T) {
	g := topology.New(1)
	res, err := Build(g, []int64{0}, 1, 10, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Errorf("isolated node should finish in 1 step, got %d", res.Steps)
	}
}

// TestBuildTinyGammaStillConverges: gamma = delta + 1 is the minimum that
// guarantees a free color; convergence should still happen (more slowly).
func TestBuildTinyGammaStillConverges(t *testing.T) {
	g, ids := randomGeometric(3, 80, 0.15)
	gamma := int64(g.MaxDegree() + 1)
	res, err := Build(g, ids, gamma, 10000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !locallyUnique(g, res.Colors) {
		t.Error("not locally unique")
	}
}

// TestGammaTradeoff is the Section 4.1 tuning claim: a larger gamma
// converges in fewer (or equal) steps on average, but yields a taller DAG
// bound. We check the convergence side empirically.
func TestGammaTradeoff(t *testing.T) {
	const runs = 25
	stepsFor := func(mult int) float64 {
		total := 0
		for seed := int64(0); seed < runs; seed++ {
			g, ids := randomGeometric(seed, 150, 0.12)
			delta := g.MaxDegree()
			gamma := int64(delta*mult + 1)
			res, err := Build(g, ids, gamma, 10000, rng.New(seed+500))
			if err != nil {
				t.Fatal(err)
			}
			total += res.Steps
		}
		return float64(total) / runs
	}
	small := stepsFor(1)  // gamma ~ delta
	large := stepsFor(20) // gamma ~ 20*delta
	if large > small+0.5 {
		t.Errorf("larger gamma converged slower: %v steps vs %v", large, small)
	}
}

// Height returns the height, in nodes, of the DAG obtained by orienting
// every edge of g from the node ranked greater to the node ranked lower
// under less (less(u, v) meaning u ≺ v). less must be a strict total order
// on adjacent nodes — exactly what locally-unique colors (or the clustering
// order ≺) provide. The height is the number of nodes on the longest
// directed path; stabilization time of the clustering layer is proportional
// to it (Lemma 2).
func Height(g *topology.Graph, less func(u, v int) bool) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	// Process nodes in ascending order; L(u) = longest descending path
	// starting at u = 1 + max L(v) over neighbors v ≺ u.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return less(order[a], order[b]) })
	l := make([]int, n)
	height := 1
	for _, u := range order {
		l[u] = 1
		for _, v := range g.Neighbors(u) {
			if less(v, u) && l[v]+1 > l[u] {
				l[u] = l[v] + 1
			}
		}
		if l[u] > height {
			height = l[u]
		}
	}
	return height
}

// ColorLess returns a strict order on adjacent nodes from colors, breaking
// (impossible, once stabilized) color ties by identifier so Height is
// well-defined even on transient states.
func ColorLess(colors, ids []int64) func(u, v int) bool {
	return func(u, v int) bool {
		if colors[u] != colors[v] {
			return colors[u] < colors[v]
		}
		return ids[u] < ids[v]
	}
}

func TestHeightEmptyAndSingle(t *testing.T) {
	if h := Height(topology.New(0), func(u, v int) bool { return u < v }); h != 0 {
		t.Errorf("empty height = %d", h)
	}
	if h := Height(topology.New(1), func(u, v int) bool { return u < v }); h != 1 {
		t.Errorf("single height = %d", h)
	}
}

func TestHeightPath(t *testing.T) {
	// Path 0-1-2-3 with identity order: the whole path descends.
	g := topology.New(4)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if h := Height(g, func(u, v int) bool { return u < v }); h != 4 {
		t.Errorf("monotone path height = %d, want 4", h)
	}
	// Alternating order 0<2, 1>0, 1>2...: colors 0,1,0,1 -> height 2.
	colors := []int64{0, 1, 0, 1}
	ids := []int64{0, 1, 2, 3}
	if h := Height(g, ColorLess(colors, ids)); h != 2 {
		t.Errorf("alternating path height = %d, want 2", h)
	}
}

// TestHeightBoundedByGamma is Theorem 1's height bound: with colors from a
// space of size gamma, the DAG height is at most gamma (in nodes; the
// paper states |gamma|+1 counting both endpoints of boundary edges).
func TestHeightBoundedByGamma(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, ids := randomGeometric(seed, 120, 0.15)
		gamma := int64(g.MaxDegree() + 5)
		res, err := Build(g, ids, gamma, 10000, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		h := Height(g, ColorLess(res.Colors, ids))
		if int64(h) > gamma+1 {
			t.Errorf("seed %d: height %d exceeds gamma+1 = %d", seed, h, gamma+1)
		}
	}
}

// TestHeightShrinksWithGamma: the flip side of the Section 4.1 trade-off —
// a smaller name-space caps the DAG height lower.
func TestHeightShrinksWithGamma(t *testing.T) {
	heightFor := func(extra int) float64 {
		total := 0
		const runs = 15
		for seed := int64(0); seed < runs; seed++ {
			g, ids := randomGeometric(seed, 150, 0.15)
			gamma := int64(g.MaxDegree() + 1 + extra)
			res, err := Build(g, ids, gamma, 10000, rng.New(seed+300))
			if err != nil {
				t.Fatal(err)
			}
			total += Height(g, ColorLess(res.Colors, ids))
		}
		return float64(total) / runs
	}
	small := heightFor(1)
	large := heightFor(2000)
	if small > large {
		t.Errorf("smaller gamma produced taller DAG: %v vs %v", small, large)
	}
}

func TestBuildDeterministic(t *testing.T) {
	g, ids := randomGeometric(7, 100, 0.15)
	gamma := int64(g.MaxDegree()*2 + 1)
	a, err := Build(g, ids, gamma, 100, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, ids, gamma, 100, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps {
		t.Fatal("steps differ for same seed")
	}
	for u := range a.Colors {
		if a.Colors[u] != b.Colors[u] {
			t.Fatal("colors differ for same seed")
		}
	}
}
