package topology

import (
	"math"
	"testing"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
)

// path returns the path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.N() != 0 || edges(g) != 0 {
		t.Error("empty graph invariants violated")
	}
	if New(-3).N() != 0 {
		t.Error("negative size should clamp to 0")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative index accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestAdjacencySortedAndSymmetric(t *testing.T) {
	g := New(5)
	for _, e := range [][2]int{{3, 1}, {3, 0}, {3, 4}, {1, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 1, 4}
	got := g.Neighbors(3)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(3) = %v, want %v", got, want)
		}
	}
	for u := 0; u < 5; u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(v, u) {
				t.Errorf("asymmetric edge (%d,%d)", u, v)
			}
		}
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := New(2)
	if g.HasEdge(-1, 0) || g.HasEdge(5, 0) {
		t.Error("HasEdge out of range should be false")
	}
}

func TestDegreeAndMaxDegree(t *testing.T) {
	g := New(4) // star centered on 0
	for v := 1; v < 4; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Errorf("degrees: %d, %d", g.Degree(0), g.Degree(1))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if edges(g) != 3 {
		t.Errorf("Edges = %d", edges(g))
	}
}

func TestFromPointsUnitDisk(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0.04, Y: 0}, {X: 0.2, Y: 0}, {X: 0.2, Y: 0.04},
	}
	g := FromPoints(pts, 0.05)
	if !g.HasEdge(0, 1) {
		t.Error("nodes at distance 0.04 should be adjacent at r=0.05")
	}
	if g.HasEdge(1, 2) {
		t.Error("nodes at distance 0.16 should not be adjacent at r=0.05")
	}
	if !g.HasEdge(2, 3) {
		t.Error("nodes at distance 0.04 should be adjacent")
	}
	if g.HasEdge(0, 2) {
		t.Error("far nodes adjacent")
	}
}

func TestFromPointsBoundaryExactlyR(t *testing.T) {
	g := FromPoints([]geom.Point{{X: 0, Y: 0}, {X: 0.05, Y: 0}}, 0.05)
	if !g.HasEdge(0, 1) {
		t.Error("distance exactly r should be adjacent (closed disk)")
	}
}

func TestFromPointsDegenerate(t *testing.T) {
	if g := FromPoints(nil, 0.1); g.N() != 0 {
		t.Error("nil points")
	}
	if g := FromPoints([]geom.Point{{X: 0, Y: 0}}, 0.1); g.N() != 1 || edges(g) != 0 {
		t.Error("single point")
	}
	if g := FromPoints([]geom.Point{{X: 0, Y: 0}, {X: 0, Y: 0}}, 0); edges(g) != 0 {
		t.Error("r=0 should produce no edges")
	}
}

// TestFromPointsMatchesBruteForce cross-checks the spatial-index
// construction against the O(n^2) definition on random instances.
func TestFromPointsMatchesBruteForce(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 30 + src.Intn(70)
		r := 0.05 + src.Float64()*0.2
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
		}
		g := FromPoints(pts, r)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				d := math.Hypot(pts[u].X-pts[v].X, pts[u].Y-pts[v].Y)
				if got, want := g.HasEdge(u, v), d <= r; got != want {
					t.Fatalf("trial %d: edge (%d,%d) = %v, want %v (dist %v, r %v)",
						trial, u, v, got, want, d, r)
				}
			}
		}
	}
}

// Distances returns the BFS hop distance from u to every node; unreachable
// nodes get -1.
func (g *Graph) Distances(u int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	if u < 0 || u >= len(g.adj) {
		return dist
	}
	dist[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func TestDistancesPath(t *testing.T) {
	g := path(t, 5)
	d := g.Distances(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Errorf("dist(0,%d) = %d, want %d", i, d[i], i)
		}
	}
}

func TestDistancesUnreachable(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	d := g.Distances(0)
	if d[2] != -1 || d[3] != -1 {
		t.Errorf("unreachable nodes should be -1: %v", d)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	comp, n := g.Components()
	if n != 4 { // {0,1}, {2,3}, {4}, {5}
		t.Fatalf("components = %d, want 4 (%v)", n, comp)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] {
		t.Errorf("component labels wrong: %v", comp)
	}
	if comp[0] == comp[2] || comp[4] == comp[5] {
		t.Errorf("distinct components merged: %v", comp)
	}
}

func TestClosedNeighborhoodLinksTriangle(t *testing.T) {
	g := New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Each node: 2 incident edges + 1 edge between its two neighbors.
	for u := 0; u < 3; u++ {
		if got := g.ClosedNeighborhoodLinks(u); got != 3 {
			t.Errorf("links(%d) = %d, want 3", u, got)
		}
	}
}

func TestClosedNeighborhoodLinksStar(t *testing.T) {
	g := New(5)
	for v := 1; v < 5; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.ClosedNeighborhoodLinks(0); got != 4 {
		t.Errorf("center links = %d, want 4 (no edges among leaves)", got)
	}
	if got := g.ClosedNeighborhoodLinks(1); got != 1 {
		t.Errorf("leaf links = %d, want 1", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := path(t, 3)
	c := g.Clone()
	if err := c.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 2) {
		t.Error("mutating clone affected original")
	}
}

func TestRemoveNode(t *testing.T) {
	g := path(t, 4) // 0-1-2-3
	g.RemoveNode(1)
	if g.Degree(1) != 0 {
		t.Error("removed node kept neighbors")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 2) {
		t.Error("stale edges after RemoveNode")
	}
	if !g.HasEdge(2, 3) {
		t.Error("unrelated edge lost")
	}
	g.RemoveNode(-1) // must not panic
	g.RemoveNode(99)
}

// edges returns the number of undirected edges.
func edges(g *Graph) int {
	sum := 0
	for _, a := range g.adj {
		sum += len(a)
	}
	return sum / 2
}
