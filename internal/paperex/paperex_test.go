package paperex

import (
	"testing"
)

// TestFixtureSelfConsistent verifies the reconstructed Figure 1 graph
// against every published constraint at once — if any edge were wrong, at
// least one of these counts would be off.
func TestFixtureSelfConsistent(t *testing.T) {
	g := Graph()
	if g.N() != NumNodes {
		t.Fatalf("N = %d", g.N())
	}
	degrees := 0
	for u := 0; u < g.N(); u++ {
		degrees += g.Degree(u)
	}
	if degrees != 2*11 {
		t.Errorf("edges = %d, want 11", degrees/2)
	}
	for u, want := range WantNeighbors {
		if got := g.Degree(u); got != want {
			t.Errorf("deg(%s) = %d, want %d", Names[u], got, want)
		}
	}
	for u, want := range WantLinks {
		if got := g.ClosedNeighborhoodLinks(u); got != want {
			t.Errorf("links(%s) = %d, want %d", Names[u], got, want)
		}
	}
}

// TestNarrativeEdges checks the edges the paper states explicitly.
func TestNarrativeEdges(t *testing.T) {
	g := Graph()
	explicit := [][2]int{
		{A, D}, {A, I}, // "two links ({(a, d), (a, i)})"
		{B, C}, {B, D}, {B, H}, {B, I}, {H, I}, // b's five links
	}
	for _, e := range explicit {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing stated edge %s-%s", Names[e[0]], Names[e[1]])
		}
	}
	if g.HasEdge(D, I) {
		t.Error("d-i edge would break Table 1's link counts")
	}
}

func TestIDsUniqueAndJSmallest(t *testing.T) {
	ids := IDs()
	seen := make(map[int64]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate id")
		}
		seen[id] = true
	}
	for u, id := range ids {
		if u != J && id <= ids[J] {
			t.Errorf("node %s has id %d <= j's %d (paper: j is smallest)", Names[u], id, ids[J])
		}
	}
}

func TestParentMapConsistency(t *testing.T) {
	// Heads are exactly the self-parents, and WantHead follows WantParent
	// chains.
	for u, p := range WantParent {
		// Follow the chain to its fixpoint.
		cur := u
		for steps := 0; WantParent[cur] != cur; steps++ {
			if steps > NumNodes {
				t.Fatalf("parent chain from %s does not terminate", Names[u])
			}
			cur = WantParent[cur]
		}
		if WantHead[u] != cur {
			t.Errorf("H(%s) = %s, but chain ends at %s", Names[u], Names[WantHead[u]], Names[cur])
		}
		_ = p
	}
}

func TestLayoutMatchesNodeCount(t *testing.T) {
	pts := Layout()
	if len(pts) != NumNodes {
		t.Fatalf("layout has %d points", len(pts))
	}
	for i, p := range pts {
		if p.X <= 0 || p.X >= 1 || p.Y <= 0 || p.Y >= 1 {
			t.Errorf("node %s at %v outside the unit square interior", Names[i], p)
		}
	}
}
