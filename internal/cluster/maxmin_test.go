package cluster

import (
	"testing"

	"selfstab/internal/topology"
)

func lineGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func seqIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

func TestMaxMinValidation(t *testing.T) {
	g := lineGraph(t, 3)
	if _, err := MaxMin(topology.New(0), nil, 1); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := MaxMin(g, seqIDs(2), 1); err == nil {
		t.Error("short ids accepted")
	}
	if _, err := MaxMin(g, []int64{1, 1, 2}, 1); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, err := MaxMin(g, seqIDs(3), 0); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestMaxMinSingleNode(t *testing.T) {
	g := topology.New(1)
	r, err := MaxMin(g, []int64{42}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head[0] != 0 || numClusters(r) != 1 {
		t.Error("isolated node must head itself")
	}
}

// TestMaxMinStarGraph: the center of a star with the largest id must win
// everything for d = 1.
func TestMaxMinStarGraph(t *testing.T) {
	g := topology.New(5)
	for v := 1; v < 5; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	ids := []int64{100, 1, 2, 3, 4} // center has the max id
	r, err := MaxMin(g, ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 5; u++ {
		if r.Head[u] != 0 {
			t.Errorf("node %d head = %d, want 0", u, r.Head[u])
		}
	}
	if numClusters(r) != 1 {
		t.Errorf("clusters = %d", numClusters(r))
	}
}

// TestMaxMinLine: on a long line with d=1, heads must be spaced out —
// every node's head is within d hops... max-min guarantees heads within d
// hops of members for rules 1/2; rule 3 can stretch it. We check the basic
// sanity: every head that is referenced elects itself.
func TestMaxMinHeadsSelfConsistent(t *testing.T) {
	g := lineGraph(t, 20)
	r, err := MaxMin(g, seqIDs(20), 2)
	if err != nil {
		t.Fatal(err)
	}
	for u, h := range r.Head {
		if r.Head[h] != h {
			t.Errorf("node %d elected %d, which itself elected %d", u, h, r.Head[h])
		}
	}
	if r.Rounds != 4 {
		t.Errorf("rounds = %d, want 2d = 4", r.Rounds)
	}
}

// TestMaxMinLargerDFewerClusters: growing d cannot increase cluster count
// on a line (floods reach further).
func TestMaxMinLargerDFewerClusters(t *testing.T) {
	g := lineGraph(t, 40)
	ids := seqIDs(40)
	prev := -1
	for _, d := range []int{1, 2, 4} {
		r, err := MaxMin(g, ids, d)
		if err != nil {
			t.Fatal(err)
		}
		n := numClusters(r)
		if prev >= 0 && n > prev {
			t.Errorf("d=%d produced %d clusters, more than smaller d's %d", d, n, prev)
		}
		prev = n
	}
}

// TestMaxMinRule1: a node that hears its own id back in floodmin is a head.
// The global maximum always satisfies this.
func TestMaxMinGlobalMaxIsHead(t *testing.T) {
	g := lineGraph(t, 9)
	ids := []int64{3, 1, 4, 15, 9, 2, 6, 5, 8} // max 15 at node 3
	r, err := MaxMin(g, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head[3] != 3 {
		t.Error("global max id node must be a head")
	}
}

func TestMaxMinDeterministic(t *testing.T) {
	g := lineGraph(t, 15)
	ids := seqIDs(15)
	a, err := MaxMin(g, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaxMin(g, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Head {
		if a.Head[u] != b.Head[u] {
			t.Fatal("max-min not deterministic")
		}
	}
}

// numClusters returns the number of distinct heads.
func numClusters(r *MaxMinResult) int {
	seen := make(map[int]bool, 8)
	for _, h := range r.Head {
		seen[h] = true
	}
	return len(seen)
}
