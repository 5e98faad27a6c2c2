package hierarchy

import (
	"slices"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/deploy"
	"selfstab/internal/geom"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

func randomInstance(seed int64, n int, r float64) (*topology.Graph, []int64) {
	src := rng.New(seed)
	d := deploy.Uniform(n, geom.UnitSquare(), deploy.IDRandom, src)
	return topology.FromPoints(d.Points, r), d.IDs
}

// heads returns the physical node indices of l's cluster-heads.
func heads(l *Level) []int {
	var out []int
	for _, h := range l.Assignment.Heads() {
		out = append(out, l.NodeOf[h])
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	g, ids := randomInstance(1, 20, 0.3)
	if _, err := Build(topology.New(0), nil, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := Build(g, ids[:3], Options{}); err == nil {
		t.Error("short ids accepted")
	}
}

func TestSingleLevel(t *testing.T) {
	g, ids := randomInstance(2, 100, 0.15)
	h, err := Build(g, ids, Options{MaxLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 1 {
		t.Fatalf("depth = %d", h.Depth())
	}
	// Level 0 must match a direct clustering.
	if err := cluster.CheckInvariants(g, h.Levels[0].Assignment, false); err != nil {
		t.Error(err)
	}
}

func TestHierarchyShrinksPerLevel(t *testing.T) {
	g, ids := randomInstance(3, 300, 0.08)
	h, err := Build(g, ids, Options{MaxLevels: 5})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() < 2 {
		t.Skipf("instance converged in one level (%d heads)", len(heads(&h.Levels[0])))
	}
	for lvl := 1; lvl < h.Depth(); lvl++ {
		prev := len(heads(&h.Levels[lvl-1]))
		cur := h.Levels[lvl].Graph.N()
		if cur != prev {
			t.Errorf("level %d has %d vertices, previous level had %d heads", lvl, cur, prev)
		}
		if len(heads(&h.Levels[lvl])) > prev {
			t.Errorf("level %d grew the head count", lvl)
		}
	}
}

func TestTopHeadsPerComponent(t *testing.T) {
	g, ids := randomInstance(4, 250, 0.12)
	_, comps := g.Components()
	h, err := Build(g, ids, Options{MaxLevels: 10})
	if err != nil {
		t.Fatal(err)
	}
	top := heads(&h.Levels[h.Depth()-1])
	if len(top) < comps {
		t.Errorf("%d top heads for %d components", len(top), comps)
	}
	// With enough levels, the hierarchy reduces each component to very few
	// clusters; we require convergence (last level's heads == its
	// component count) because Build stops exactly there.
	last := h.Levels[h.Depth()-1]
	_, lastComps := last.Graph.Components()
	if len(last.Assignment.Heads()) != lastComps && h.Depth() == 10 {
		t.Logf("hierarchy hit the level cap before converging (acceptable)")
	}
}

// TestHeadOfResolvesThroughLevels: a node's head resolves up the stack
// because each level's vertices are exactly the previous level's heads,
// in order.
func TestHeadOfResolvesThroughLevels(t *testing.T) {
	g, ids := randomInstance(5, 200, 0.1)
	h, err := Build(g, ids, Options{MaxLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() < 2 {
		t.Fatal("the instance built a single level; the check needs two")
	}
	for k := 1; k < h.Depth(); k++ {
		if got, want := h.Levels[k].NodeOf, heads(&h.Levels[k-1]); !slices.Equal(got, want) {
			t.Errorf("level %d vertices %v, want the level-%d heads %v", k, got, k-1, want)
		}
	}
}

func TestOverlayAdjacency(t *testing.T) {
	// Two touching clusters on a path: 0-1-2-3-4-5 with values forcing
	// heads at 1 and 4.
	g := topology.New(6)
	for i := 0; i < 5; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	ids := []int64{5, 0, 6, 7, 1, 8} // heads: smallest ids win ties (1 and 4)
	h, err := Build(g, ids, Options{MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	l0Heads := heads(&h.Levels[0])
	if len(l0Heads) != 2 {
		t.Fatalf("level 0 heads = %v, want 2 heads", l0Heads)
	}
	if h.Depth() < 2 {
		t.Fatal("expected a second level for two touching clusters")
	}
	// The two heads' clusters touch (edge 2-3), so the overlay must have
	// exactly one edge and level 1 must merge them into one cluster.
	if g1 := h.Levels[1].Graph; g1.N() != 2 || !g1.HasEdge(0, 1) {
		t.Errorf("overlay is not one edge between the two heads")
	}
	if got := len(heads(&h.Levels[1])); got != 1 {
		t.Errorf("level 1 heads = %d, want 1", got)
	}
}

func TestFusionPropagatesToAllLevels(t *testing.T) {
	g, ids := randomInstance(7, 250, 0.09)
	h, err := Build(g, ids, Options{MaxLevels: 3, Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	for lvl, l := range h.Levels {
		if err := cluster.CheckInvariants(l.Graph, l.Assignment, true); err != nil {
			t.Errorf("level %d: %v", lvl, err)
		}
	}
}

func TestDeterministic(t *testing.T) {
	g, ids := randomInstance(8, 150, 0.12)
	a, err := Build(g, ids, Options{MaxLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, ids, Options{MaxLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Depth() != b.Depth() {
		t.Fatal("depths differ")
	}
	for lvl := range a.Levels {
		ah, bh := heads(&a.Levels[lvl]), heads(&b.Levels[lvl])
		if len(ah) != len(bh) {
			t.Fatal("head counts differ")
		}
		for i := range ah {
			if ah[i] != bh[i] {
				t.Fatal("heads differ")
			}
		}
	}
}
