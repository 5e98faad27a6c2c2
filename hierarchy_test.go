package selfstab

import (
	"reflect"
	"slices"
	"testing"

	"selfstab/internal/topology"
)

// levelGraphs rebuilds each level's graph from levels on the churn-free
// world net: level 0 is the radio topology, and each level above is the
// overlay of the one below under the heads levels reports. It returns
// every level's graph and head index per vertex, and fails t unless each
// level partitions its vertices, which above level 0 are exactly the
// previous level's heads.
func levelGraphs(t *testing.T, net *Network, levels []HierarchyLevel) ([]*topology.Graph, [][]int) {
	t.Helper()
	g, ids := net.grid.Graph(), net.engine.IDs()
	var graphs []*topology.Graph
	var heads [][]int
	for lvl, l := range levels {
		if lvl > 0 {
			g, ids = overlay(g, heads[lvl-1], ids)
		}
		index := make(map[int64]int, len(ids))
		for i, id := range ids {
			index[id] = i
		}
		head := slices.Repeat([]int{-1}, len(ids))
		for _, c := range l.Clusters {
			for _, m := range c.Members {
				i, ok := index[m]
				if !ok || head[i] >= 0 {
					t.Fatalf("level %d member %d: not a vertex of the level, or listed twice", lvl, m)
				}
				head[i] = index[c.HeadID]
			}
		}
		if slices.Contains(head, -1) {
			t.Fatalf("level %d leaves a vertex unclustered", lvl)
		}
		graphs, heads = append(graphs, g), append(heads, head)
	}
	return graphs, heads
}

// TestBuildHierarchyLevels: every level partitions its graph into
// clusters whose heads are their own heads and pairwise non-adjacent.
func TestBuildHierarchyLevels(t *testing.T) {
	net, err := NewRandomNetwork(250, WithSeed(30), WithRange(0.08))
	if err != nil {
		t.Fatal(err)
	}
	levels, err := net.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 3 {
		t.Fatalf("%d levels; the checks need three", len(levels))
	}
	graphs, heads := levelGraphs(t, net, levels)
	for lvl, g := range graphs {
		for u, h := range heads[lvl] {
			if heads[lvl][h] != h {
				t.Errorf("level %d: vertex %d's head %d is not its own head", lvl, u, h)
			}
			for _, v := range g.Neighbors(u) {
				if h == u && heads[lvl][v] == v {
					t.Errorf("level %d: adjacent heads %d and %d", lvl, u, v)
				}
			}
		}
	}
}

// TestBuildHierarchySingleLevel: a one-level cap builds exactly level 0,
// the same level 0 a deeper build starts from.
func TestBuildHierarchySingleLevel(t *testing.T) {
	net, err := NewRandomNetwork(100, WithSeed(2), WithRange(0.15))
	if err != nil {
		t.Fatal(err)
	}
	one, err := net.BuildHierarchy(1)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := net.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || len(deep) < 2 {
		t.Fatalf("%d levels under a cap of one, %d under five; the check needs 1 and at least 2", len(one), len(deep))
	}
	levelGraphs(t, net, one)
	if !reflect.DeepEqual(one[0], deep[0]) {
		t.Error("the level-cap changed level 0")
	}
}

// TestBuildHierarchyShrinksPerLevel: each level above 0 has one vertex
// per head of the level below, and never more heads than that.
func TestBuildHierarchyShrinksPerLevel(t *testing.T) {
	net, err := NewRandomNetwork(300, WithSeed(3), WithRange(0.08))
	if err != nil {
		t.Fatal(err)
	}
	levels, err := net.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 2 {
		t.Fatalf("%d levels; the check needs two", len(levels))
	}
	graphs, _ := levelGraphs(t, net, levels)
	for lvl := 1; lvl < len(levels); lvl++ {
		if got, prev := graphs[lvl].N(), len(levels[lvl-1].Clusters); got != prev {
			t.Errorf("level %d has %d vertices, level %d has %d heads", lvl, got, lvl-1, prev)
		}
		if len(levels[lvl].Clusters) > len(levels[lvl-1].Clusters) {
			t.Errorf("level %d grew the head count", lvl)
		}
	}
}

// TestBuildHierarchyLevelVerticesAreHeads: a node's head resolves up the
// stack because the members of each level above 0 are exactly the heads
// of the level below.
func TestBuildHierarchyLevelVerticesAreHeads(t *testing.T) {
	net, err := NewRandomNetwork(200, WithSeed(5), WithRange(0.1))
	if err != nil {
		t.Fatal(err)
	}
	levels, err := net.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 2 {
		t.Fatalf("%d levels; the check needs two", len(levels))
	}
	for k := 1; k < len(levels); k++ {
		var members, heads []int64
		for _, c := range levels[k].Clusters {
			members = append(members, c.Members...)
		}
		for _, c := range levels[k-1].Clusters {
			heads = append(heads, c.HeadID)
		}
		slices.Sort(members)
		slices.Sort(heads)
		if !slices.Equal(members, heads) {
			t.Errorf("level %d members %v, want the level-%d heads %v", k, members, k-1, heads)
		}
	}
}

func TestBuildHierarchyValidation(t *testing.T) {
	net, err := NewRandomNetwork(20, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	for _, levels := range []int{0, -1} {
		if _, err := net.BuildHierarchy(levels); err == nil {
			t.Errorf("%d levels accepted", levels)
		}
	}
}

// TestBuildHierarchyNoOperatingNode: a world whose every node sleeps has
// nothing to cluster, and BuildHierarchy says so instead of building an
// empty level.
func TestBuildHierarchyNoOperatingNode(t *testing.T) {
	net, err := NewRandomNetwork(20, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SleepNodes(net.IDs()...); err != nil {
		t.Fatal(err)
	}
	if _, err := net.BuildHierarchy(1); err == nil {
		t.Error("a world with no operating node built a hierarchy")
	}
}

// TestBuildHierarchyMatchesClustersAtLevel0: level 0 is the fixpoint
// Verify checks, so on a stabilized world Verify accepts it equals the
// live clustering, head for head and member for member: with the DAG's
// realized colors as tie-breaks, sticky incumbents, fusion and a
// population with dead and sleeping nodes. Battery-weighted densities
// are TestBuildHierarchyMatchesClustersUnderRotation's world.
func TestBuildHierarchyMatchesClustersAtLevel0(t *testing.T) {
	random := func(opts ...Option) func(*testing.T) *Network {
		return func(t *testing.T) *Network {
			net, err := NewRandomNetwork(400, append([]Option{WithSeed(1), WithRange(0.09)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return net
		}
	}
	for _, row := range []struct {
		name  string
		world func(*testing.T) *Network
	}{
		{"plain", random()},
		{"dag", random(WithDAG(0))},
		{"sticky", random(WithSeed(3), WithStickyHeads())},
		{"fusion", random(WithFusion())},
		{"churned", func(t *testing.T) *Network {
			net := churnNet(t, 100, 47)
			ids := net.IDs()
			if err := net.RemoveNodes(ids[0], ids[1], ids[2]); err != nil {
				t.Fatal(err)
			}
			if err := net.SleepNodes(ids[3], ids[4]); err != nil {
				t.Fatal(err)
			}
			return net
		}},
		{"row-major grid dag", func(t *testing.T) *Network {
			net, err := NewGridNetwork(20, 20, WithSeed(1), WithRange(0.08), WithRowMajorIDs(), WithDAG(0))
			if err != nil {
				t.Fatal(err)
			}
			return net
		}},
	} {
		t.Run(row.name, func(t *testing.T) { checkLevel0(t, row.world(t)) })
	}
}

// checkLevel0 stabilizes net, requires Verify to accept it, and fails t
// unless a one-level hierarchy equals Clusters, heads and members.
func checkLevel0(t *testing.T, net *Network) {
	t.Helper()
	if _, err := net.Stabilize(5000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	levels, err := net.BuildHierarchy(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 {
		t.Fatalf("%d levels built, asked for one", len(levels))
	}
	if live := net.Clusters(); !reflect.DeepEqual(levels[0].Clusters, live) {
		t.Errorf("level 0 has %d clusters, the live clustering %d, and they differ:\nlevel 0 %v\nlive    %v",
			len(levels[0].Clusters), len(live), levels[0].Clusters, live)
	}
}

// TestBuildHierarchyTopHeadPerComponent: on a disconnected world the
// hierarchy stops exactly when each component has one head, and never
// merges two components.
func TestBuildHierarchyTopHeadPerComponent(t *testing.T) {
	net, err := NewRandomNetwork(250, WithSeed(4), WithRange(0.07))
	if err != nil {
		t.Fatal(err)
	}
	_, comps := net.grid.Graph().Components()
	if comps < 2 {
		t.Fatalf("%d components; the check needs several", comps)
	}
	const maxLevels = 10
	levels, err := net.BuildHierarchy(maxLevels)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) == maxLevels {
		t.Fatalf("the hierarchy hit the %d-level cap", maxLevels)
	}
	if top := levels[len(levels)-1].Clusters; len(top) != comps {
		t.Errorf("%d top heads for %d components", len(top), comps)
	}
	if len(levels) > 1 && len(levels[len(levels)-2].Clusters) <= comps {
		t.Errorf("the level below the top already had one head per component")
	}
}

// TestOverlay: two touching clusters on a path become one overlay edge;
// a cluster that touches neither stays an isolated vertex.
func TestOverlay(t *testing.T) {
	g := topology.New(8) // 0-1-2-3-4-5 and 6-7
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {6, 7}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	head := []int{1, 1, 1, 4, 4, 4, 7, 7}
	ids := []int64{5, 0, 6, 7, 1, 8, 9, 2}
	next, nextIDs := overlay(g, head, ids)
	if want := []int64{0, 1, 2}; !slices.Equal(nextIDs, want) {
		t.Fatalf("overlay vertices %v, want the heads' ids %v", nextIDs, want)
	}
	if next.N() != 3 || !next.HasEdge(0, 1) || next.HasEdge(0, 2) || next.HasEdge(1, 2) {
		t.Errorf("overlay is not exactly one edge between the two touching clusters")
	}
}

// TestBuildHierarchyPathMergesAtLevel1: the path of TestOverlay as a
// world: level 0 elects the two smallest-id nodes on equal densities,
// and level 1 merges their touching clusters into one.
func TestBuildHierarchyPathMergesAtLevel1(t *testing.T) {
	pts := make([]Point, 6)
	for i := range pts {
		pts[i] = Point{X: 0.1 + 0.1*float64(i), Y: 0.5}
	}
	net, err := NewNetwork(pts, WithRange(0.15), WithIDs([]int64{5, 0, 6, 7, 1, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(100); err != nil {
		t.Fatal(err)
	}
	levels, err := net.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	want := []HierarchyLevel{
		{Clusters: []Cluster{{HeadID: 0, Members: []int64{0, 5, 6}}, {HeadID: 1, Members: []int64{1, 7, 8}}}},
		{Clusters: []Cluster{{HeadID: 0, Members: []int64{0, 1}}}},
	}
	if !reflect.DeepEqual(levels, want) {
		t.Errorf("levels %v, want %v", levels, want)
	}
}

// TestBuildHierarchyFusionEveryLevel: with fusion the Section 4.3 rule
// holds at every level, not only on the radio topology: any two heads
// of a level are at least three hops apart in that level's graph.
func TestBuildHierarchyFusionEveryLevel(t *testing.T) {
	net, err := NewRandomNetwork(250, WithSeed(7), WithRange(0.09), WithFusion())
	if err != nil {
		t.Fatal(err)
	}
	levels, err := net.BuildHierarchy(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 2 {
		t.Fatalf("%d levels; the check needs two", len(levels))
	}
	graphs, heads := levelGraphs(t, net, levels)
	for lvl, g := range graphs {
		isHead := func(v int) bool { return heads[lvl][v] == v }
		for h := range heads[lvl] {
			if !isHead(h) {
				continue
			}
			for _, x := range g.Neighbors(h) {
				if isHead(x) {
					t.Errorf("level %d: heads %d and %d adjacent", lvl, h, x)
				}
				for _, v := range g.Neighbors(x) {
					if v != h && isHead(v) {
						t.Errorf("level %d: heads %d and %d within two hops", lvl, h, v)
					}
				}
			}
		}
	}
}

// TestBuildHierarchyDeterministic: the hierarchy is a function of the
// world: building it twice, or on a second world from the same seed,
// gives the same levels.
func TestBuildHierarchyDeterministic(t *testing.T) {
	build := func() (*Network, []HierarchyLevel) {
		net, err := NewRandomNetwork(150, WithSeed(8), WithRange(0.12))
		if err != nil {
			t.Fatal(err)
		}
		levels, err := net.BuildHierarchy(4)
		if err != nil {
			t.Fatal(err)
		}
		return net, levels
	}
	net, a := build()
	_, b := build()
	again, err := net.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) < 2 {
		t.Fatalf("%d levels; the check needs two", len(a))
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, again) {
		t.Error("the same world built different hierarchies")
	}
}

func TestWithDaemonOption(t *testing.T) {
	if _, err := NewRandomNetwork(10, WithDaemon(0)); err == nil {
		t.Error("daemon prob 0 accepted")
	}
	if _, err := NewRandomNetwork(10, WithDaemon(1.5)); err == nil {
		t.Error("daemon prob > 1 accepted")
	}
	net, err := NewRandomNetwork(60, WithSeed(33), WithRange(0.2), WithDaemon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(5000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Errorf("randomized daemon network not legitimate: %v", err)
	}
}
