package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// refDistancesWithin is the restricted BFS the per-cluster scans ran
// before headDistances replaced them (it was topology.Graph's
// DistancesWithin): distances from u through the node set member, -1 for
// nodes outside the set or unreachable through it. O(N) per call, which is
// why it is a reference and not a building block.
func refDistancesWithin(g *topology.Graph, u int, member []bool) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if u < 0 || u >= g.N() || !member[u] {
		return dist
	}
	dist[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if member[w] && dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func TestDistancesWithin(t *testing.T) {
	g := lineGraph(t, 5)
	member := []bool{true, true, false, true, true}
	d := refDistancesWithin(g, 0, member)
	if d[0] != 0 || d[1] != 1 {
		t.Errorf("in-set distances wrong: %v", d)
	}
	if d[2] != -1 {
		t.Errorf("non-member got distance %d", d[2])
	}
	if d[3] != -1 || d[4] != -1 {
		t.Errorf("nodes cut off by non-member should be -1: %v", d)
	}
	// Starting at a non-member yields all -1.
	d = refDistancesWithin(g, 2, member)
	for i, v := range d {
		if v != -1 {
			t.Errorf("start at non-member: d[%d]=%d", i, v)
		}
	}
}

// refStats is ComputeStatsOn as it stood before the O(N+E) rewrite, kept
// verbatim (one restricted BFS over an O(N) array per cluster) as the
// reference the rewrite must equal field for field.
func refStats(a *Assignment, g *topology.Graph, operating []bool) Stats {
	n := g.N()
	var s Stats
	if n == 0 {
		return s
	}
	on := func(u int) bool { return operating == nil || operating[u] }

	members := make(map[int][]int, 8)
	for u := 0; u < n; u++ {
		if !on(u) {
			continue
		}
		h := a.Head[u]
		if h < 0 || h >= n || !on(h) {
			h = u
		}
		members[h] = append(members[h], u)
	}
	s.NumClusters = len(members)

	// Head eccentricities within each cluster.
	member := make([]bool, n)
	eccSum := 0
	for h, us := range members {
		for _, u := range us {
			member[u] = true
		}
		ecc := 0
		for _, d := range refDistancesWithin(g, h, member) {
			if d > ecc {
				ecc = d
			}
		}
		eccSum += ecc
		if ecc > s.MaxHeadEccentricity {
			s.MaxHeadEccentricity = ecc
		}
		for _, u := range us {
			member[u] = false
		}
		s.Sizes = append(s.Sizes, len(us))
	}
	if len(members) == 0 {
		return s // no operating node: nothing to measure
	}
	s.MeanHeadEccentricity = float64(eccSum) / float64(len(members))
	sort.Sort(sort.Reverse(sort.IntSlice(s.Sizes)))

	// Parent-chain lengths. A chain ends at a self-parent — or at a
	// reference that leaves the operating population, which a surviving
	// node treats as being its own root.
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	var chainLen func(u int) int
	chainLen = func(u int) int {
		if depth[u] >= 0 {
			return depth[u]
		}
		p := a.Parent[u]
		if p == u || p < 0 || p >= n || !on(p) {
			depth[u] = 0
			return 0
		}
		// Mark to guard against accidental cycles (must not happen for a
		// valid assignment; a cycle would recurse forever otherwise).
		depth[u] = 0
		depth[u] = chainLen(p) + 1
		return depth[u]
	}
	sum, count := 0, 0
	for u := 0; u < n; u++ {
		if !on(u) {
			continue
		}
		d := chainLen(u)
		if d > s.MaxTreeLength {
			s.MaxTreeLength = d
		}
		if a.Parent[u] != u {
			sum += d
			count++
		}
	}
	if count > 0 {
		s.MeanTreeLength = float64(sum) / float64(count)
	}
	return s
}

// TestComputeStatsMatchesReference compares ComputeStatsOn with refStats
// over seeded graphs × operating masks × assignments, legitimate and not:
// the statistics are read off live, mid-convergence worlds, so every
// degraded reference the old body tolerated must count the same way.
func TestComputeStatsMatchesReference(t *testing.T) {
	type graphCase struct {
		name string
		g    *topology.Graph
		cfg  Config
	}
	var graphs []graphCase
	single := topology.New(1)
	graphs = append(graphs, graphCase{"single", single, Config{Values: []float64{0}, TieIDs: []int64{0}, Order: OrderBasic}})
	for _, c := range []struct {
		name string
		n    int
		r    float64
	}{
		{"dense", 120, 0.2},
		{"disconnected", 150, 0.07}, // below the connectivity threshold: many components
		{"sparse", 300, 0.09},
	} {
		g, cfg := randomInstance(int64(len(graphs)), c.n, c.r, OrderBasic, false)
		graphs = append(graphs, graphCase{c.name, g, cfg})
	}
	// Isolated slots: dead nodes keep their index with no edges.
	g, cfg := randomInstance(9, 100, 0.2, OrderBasic, false)
	for u := 0; u < g.N(); u += 7 {
		g.RemoveNode(u)
	}
	graphs = append(graphs, graphCase{"isolated-slots", g, cfg})

	for _, gc := range graphs {
		n := gc.g.N()
		src := rng.New(int64(n))
		converged, err := Compute(gc.g, gc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		scramble := func(lo, hi int) *Assignment { // values drawn from [lo, hi)
			a := &Assignment{Parent: make([]int, n), Head: make([]int, n)}
			for u := 0; u < n; u++ {
				a.Parent[u] = lo + src.Intn(hi-lo)
				a.Head[u] = lo + src.Intn(hi-lo)
			}
			return a
		}
		selfCycles := &Assignment{Parent: append([]int(nil), converged.Parent...), Head: append([]int(nil), converged.Head...)}
		for u := 0; u+1 < n; u += 3 { // two-node parent cycles and heads that are not their own head
			selfCycles.Parent[u], selfCycles.Parent[u+1] = u+1, u
			selfCycles.Head[u] = u + 1
		}
		assignments := map[string]*Assignment{
			"converged":    converged,
			"scrambled":    scramble(0, n),
			"out-of-range": scramble(-2, n+2),
			"self-cycles":  selfCycles,
		}

		random := make([]bool, n)
		for u := range random {
			random[u] = src.Float64() < 0.7
		}
		headless := make([]bool, n) // every converged head is outside the mask
		for u := range headless {
			headless[u] = converged.Head[u] != u
		}
		masks := map[string][]bool{"nil": nil, "random": random, "headless": headless, "none": make([]bool, n)}

		for an, a := range assignments {
			for mn, mask := range masks {
				name := fmt.Sprintf("%s/%s/%s", gc.name, an, mn)
				want := refStats(a, gc.g, mask)
				if got := a.ComputeStatsOn(gc.g, mask); !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
				}
			}
		}

		// The helper itself, as CheckInvariants uses it: over the partition
		// a.Head, each cluster's distances equal the restricted BFS from
		// its head.
		dist := headDistances(gc.g, converged.Head)
		for _, h := range converged.Heads() {
			member := make([]bool, n)
			for u, hu := range converged.Head {
				member[u] = hu == h
			}
			for u, d := range refDistancesWithin(gc.g, h, member) {
				if member[u] && dist[u] != d {
					t.Errorf("%s: headDistances[%d] = %d, restricted BFS from head %d says %d", gc.name, u, dist[u], h, d)
				}
			}
		}
	}
}
