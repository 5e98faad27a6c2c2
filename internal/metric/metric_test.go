package metric

import (
	"math"
	"testing"
	"testing/quick"

	"selfstab/internal/geom"
	"selfstab/internal/paperex"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// TestPaperExampleDensities validates Definition 1 against every row of the
// paper's Table 1.
func TestPaperExampleDensities(t *testing.T) {
	g := paperex.Graph()
	// Neighbor counts first (Table 1 row 1).
	for u, want := range paperex.WantNeighbors {
		if got := g.Degree(u); got != want {
			t.Errorf("node %s: degree = %d, want %d", paperex.Names[u], got, want)
		}
	}
	// Link counts (Table 1 row 2).
	for u, want := range paperex.WantLinks {
		if got := g.ClosedNeighborhoodLinks(u); got != want {
			t.Errorf("node %s: links = %d, want %d", paperex.Names[u], got, want)
		}
	}
	// Densities (Table 1 row 3).
	vals := Density{}.Values(g)
	for u, want := range paperex.WantDensity {
		if math.Abs(vals[u]-want) > 1e-12 {
			t.Errorf("node %s: density = %v, want %v", paperex.Names[u], vals[u], want)
		}
	}
}

func TestDensityIsolatedNode(t *testing.T) {
	g := topology.New(1)
	if got := (Density{}).Values(g)[0]; got != 0 {
		t.Errorf("isolated density = %v, want 0", got)
	}
}

func TestDensityValueOfMatchesValues(t *testing.T) {
	g := paperex.Graph()
	vals := Density{}.Values(g)
	for u := 0; u < g.N(); u++ {
		if got := (Density{}).ValueOf(g, u); got != vals[u] {
			t.Errorf("ValueOf(%d) = %v, Values = %v", u, got, vals[u])
		}
	}
}

// Property: density is always >= 1 on non-isolated nodes (every neighbor
// contributes at least its own edge to p) and <= (deg + deg*(deg-1)/2)/deg.
func TestDensityBounds(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 5 + src.Intn(60)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
		}
		g := topology.FromPoints(pts, 0.2)
		for u, d := range (Density{}).Values(g) {
			deg := float64(g.Degree(u))
			if deg == 0 {
				if d != 0 {
					return false
				}
				continue
			}
			upper := (deg + deg*(deg-1)/2) / deg
			if d < 1 || d > upper+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the density of a node in a clique of size k is k(k+1)/2 / k...
// concretely every node sees deg = k-1 neighbors and all C(k-1,2) edges
// among them plus its own k-1 edges.
func TestDensityClique(t *testing.T) {
	for k := 2; k <= 8; k++ {
		g := topology.New(k)
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		deg := float64(k - 1)
		want := (deg + deg*(deg-1)/2) / deg
		for _, d := range (Density{}).Values(g) {
			if math.Abs(d-want) > 1e-12 {
				t.Errorf("clique K%d: density = %v, want %v", k, d, want)
			}
		}
	}
}

// TestDensitySmoothness demonstrates the paper's motivating claim: removing
// one node from a dense neighborhood changes the density much less
// (relatively) than it changes the degree.
func TestDensitySmoothness(t *testing.T) {
	// Clique of 10 plus center node 10 connected to all.
	g := topology.New(11)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for u := 0; u < 10; u++ {
		if err := g.AddEdge(10, u); err != nil {
			t.Fatal(err)
		}
	}
	before := (Density{}).ValueOf(g, 10)
	degBefore := g.Degree(10)
	g.RemoveNode(0)
	after := (Density{}).ValueOf(g, 10)
	degAfter := g.Degree(10)

	degChange := math.Abs(float64(degBefore-degAfter)) / float64(degBefore)
	densChange := math.Abs(before-after) / before
	if densChange >= degChange {
		t.Errorf("density change %.3f not smoother than degree change %.3f", densChange, degChange)
	}
}

func TestDensityFromTablesMatchesOracle(t *testing.T) {
	g := paperex.Graph()
	ids := paperex.IDs()
	// Build per-node advertised neighbor lists.
	lists := make(map[int64][]int64, g.N())
	for u := 0; u < g.N(); u++ {
		var l []int64
		for _, v := range g.Neighbors(u) {
			l = append(l, ids[v])
		}
		lists[ids[u]] = l
	}
	oracle := Density{}.Values(g)
	for u := 0; u < g.N(); u++ {
		got := DensityFromTables(ids[u], lists[ids[u]], lists)
		if math.Abs(got-oracle[u]) > 1e-12 {
			t.Errorf("node %s: table density %v, oracle %v", paperex.Names[u], got, oracle[u])
		}
	}
}

func TestDensityFromTablesEmpty(t *testing.T) {
	if got := DensityFromTables(0, nil, nil); got != 0 {
		t.Errorf("empty tables density = %v", got)
	}
}

func TestDensityFromTablesMissingNeighborList(t *testing.T) {
	// Neighbor 2's list is unknown (not yet heard): its edges are simply
	// not counted; the p-q edges still are.
	got := DensityFromTables(1, []int64{2, 3}, map[int64][]int64{3: {1}})
	if got != 1.0 { // 2 links / 2 neighbors
		t.Errorf("density = %v, want 1.0", got)
	}
}

func TestDegreeValues(t *testing.T) {
	g := paperex.Graph()
	vals := Degree{}.Values(g)
	for u, want := range paperex.WantNeighbors {
		if vals[u] != float64(want) {
			t.Errorf("node %s: degree value = %v, want %d", paperex.Names[u], vals[u], want)
		}
	}
}

func TestConstantValues(t *testing.T) {
	g := paperex.Graph()
	for _, v := range (Constant{}).Values(g) {
		if v != 0 {
			t.Errorf("constant metric produced %v", v)
		}
	}
}
