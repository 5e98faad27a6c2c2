package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"selfstab/internal/metric"
	"selfstab/internal/paperex"
	"selfstab/internal/topology"
)

// paperConfig returns the basic-order configuration for the Figure 1
// fixture.
func paperConfig() (*topology.Graph, Config) {
	g := paperex.Graph()
	return g, Config{
		Values: metric.Density{}.Values(g),
		TieIDs: paperex.IDs(),
		Order:  OrderBasic,
	}
}

// TestPaperExampleClustering replays the worked example end to end: parents
// and heads must match the paper's narrative (two clusters, heads h and j).
func TestPaperExampleClustering(t *testing.T) {
	g, cfg := paperConfig()
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u, want := range paperex.WantParent {
		if a.Parent[u] != want {
			t.Errorf("F(%s) = %s, want %s",
				paperex.Names[u], paperex.Names[a.Parent[u]], paperex.Names[want])
		}
	}
	for u, want := range paperex.WantHead {
		if a.Head[u] != want {
			t.Errorf("H(%s) = %s, want %s",
				paperex.Names[u], paperex.Names[a.Head[u]], paperex.Names[want])
		}
	}
	if got := len(a.Heads()); got != 2 {
		t.Errorf("clusters = %d, want 2", got)
	}
	if err := CheckInvariants(g, a, false, nil); err != nil {
		t.Error(err)
	}
}

func TestComputeEmptyGraph(t *testing.T) {
	if _, err := Compute(topology.New(0), Config{Order: OrderBasic}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestComputeValidation(t *testing.T) {
	g := paperex.Graph()
	base := Config{
		Values: metric.Density{}.Values(g),
		TieIDs: paperex.IDs(),
		Order:  OrderBasic,
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"short values", func(c *Config) { c.Values = c.Values[:2] }},
		{"short tie ids", func(c *Config) { c.TieIDs = c.TieIDs[:2] }},
		{"bad order", func(c *Config) { c.Order = 0 }},
		{"short prev heads", func(c *Config) { c.PrevHead = []int{1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := Compute(g, cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestSingleNodeIsOwnHead(t *testing.T) {
	g := topology.New(1)
	a, err := Compute(g, Config{Values: []float64{0}, TieIDs: []int64{7}, Order: OrderBasic})
	if err != nil {
		t.Fatal(err)
	}
	if a.Parent[0] != 0 || a.Head[0] != 0 {
		t.Error("isolated node must head itself")
	}
}

func TestOrderBasicTotality(t *testing.T) {
	ranks := []Rank{
		{Value: 1.0, TieID: 3},
		{Value: 1.0, TieID: 5},
		{Value: 2.0, TieID: 1},
	}
	for i, p := range ranks {
		if OrderBasic.Less(p, p) {
			t.Errorf("rank %d: p ≺ p (irreflexivity violated)", i)
		}
		for j, q := range ranks {
			if i == j {
				continue
			}
			less := OrderBasic.Less(p, q)
			greater := OrderBasic.Less(q, p)
			if less == greater {
				t.Errorf("ranks %d,%d: totality/antisymmetry violated (%v, %v)", i, j, less, greater)
			}
		}
	}
}

func TestOrderSmallerIDWinsTies(t *testing.T) {
	p := Rank{Value: 1.5, TieID: 9}
	q := Rank{Value: 1.5, TieID: 2}
	if !OrderBasic.Less(p, q) {
		t.Error("equal densities: the node with the smaller id must win")
	}
}

func TestOrderStickyHeadWinsTies(t *testing.T) {
	incumbent := Rank{Value: 1.5, TieID: 9, IsHead: true}
	challenger := Rank{Value: 1.5, TieID: 2, IsHead: false}
	if !OrderSticky.Less(challenger, incumbent) {
		t.Error("sticky order: incumbent head must beat lower-id challenger on ties")
	}
	// Density still dominates headness.
	denser := Rank{Value: 1.6, TieID: 2, IsHead: false}
	if OrderSticky.Less(denser, incumbent) {
		t.Error("sticky order: higher density must beat incumbency")
	}
	// Two incumbents fall back to the identifier.
	other := Rank{Value: 1.5, TieID: 2, IsHead: true}
	if !OrderSticky.Less(incumbent, other) {
		t.Error("two incumbents: smaller id must win")
	}
}

func TestOrderString(t *testing.T) {
	if OrderBasic.String() != "basic" || OrderSticky.String() != "sticky" {
		t.Error("order labels wrong")
	}
	if Order(0).String() != "order?" {
		t.Error("unknown order label")
	}
}

// TestNoAdjacentHeads is the paper's Section 3 claim on arbitrary graphs.
func TestNoAdjacentHeads(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, cfg := randomInstance(seed, 60, 0.2, OrderBasic, false)
		a, err := Compute(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckInvariants(g, a, false, nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestParentIsMaxNeighbor verifies the join rule directly: every non-head's
// parent must be its ≺-maximal neighbor, and every head must dominate its
// whole neighborhood.
func TestParentIsMaxNeighbor(t *testing.T) {
	g, cfg := randomInstance(3, 80, 0.15, OrderBasic, false)
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rank := func(u int) Rank { return Rank{Value: cfg.Values[u], TieID: cfg.TieIDs[u]} }
	for u := 0; u < g.N(); u++ {
		best := u
		for _, v := range g.Neighbors(u) {
			if cfg.Order.Less(rank(best), rank(v)) {
				best = v
			}
		}
		if a.Parent[u] != best {
			t.Errorf("node %d: parent %d, want ≺-max %d", u, a.Parent[u], best)
		}
	}
}

func TestFusionHeadSeparation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, cfg := randomInstance(seed, 80, 0.12, OrderBasic, true)
		a, err := Compute(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckInvariants(g, a, true, nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestFusionNeverIncreasesClusters(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, cfg := randomInstance(seed, 80, 0.12, OrderBasic, false)
		plain, err := Compute(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fusion = true
		fused, err := Compute(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused.Heads()) > len(plain.Heads()) {
			t.Errorf("seed %d: fusion grew head count %d -> %d",
				seed, len(plain.Heads()), len(fused.Heads()))
		}
		if fused.Demotions != len(plain.Heads())-len(fused.Heads()) {
			t.Errorf("seed %d: demotions %d inconsistent with head delta %d",
				seed, fused.Demotions, len(plain.Heads())-len(fused.Heads()))
		}
	}
}

// TestFusionPathExample exercises the exact Section 4.3 scenario: two heads
// u, v at distance two sharing neighbor p; the lesser head must dissolve.
func TestFusionPathExample(t *testing.T) {
	// Path u - p - v plus a pendant on each head so the heads have higher
	// degree-metric value than p.
	g := topology.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 3}, {2, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Values: metric.Degree{}.Values(g), // u and v have degree 2, p has 2 too
		TieIDs: []int64{5, 9, 1, 7, 8},    // v (node 2) has the smallest id
		Order:  OrderBasic,
	}
	plain, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without fusion: node 2 wins its neighborhood (id 1); node 0 vs node 1:
	// equal degree, id 5 < 9 so node 0 wins locally => two heads at distance 2.
	if plain.Parent[0] != 0 || plain.Parent[2] != 2 {
		t.Fatalf("setup broken: heads = %v", plain.Heads())
	}
	cfg.Fusion = true
	fused, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Heads()) != 1 || fused.Parent[2] != 2 {
		t.Errorf("fusion: heads = %v, want just node 2", fused.Heads())
	}
	if err := CheckInvariants(g, fused, true, nil); err != nil {
		t.Error(err)
	}
	// The dissolved head u=0 must reach v=2 through the common neighbor.
	if fused.Parent[0] != 1 || fused.Parent[1] != 2 {
		t.Errorf("re-rooting wrong: F(0)=%d F(1)=%d", fused.Parent[0], fused.Parent[1])
	}
}

func TestStickyPreservesIncumbent(t *testing.T) {
	// Two adjacent nodes with equal density; ids favor node 1, but node 0
	// is the incumbent head.
	g := topology.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Values:   []float64{1, 1},
		TieIDs:   []int64{9, 2},
		Order:    OrderSticky,
		PrevHead: []int{0, 0},
	}
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Parent[0] != 0 {
		t.Error("incumbent head lost despite sticky order")
	}
	// Under the basic order node 1 (smaller id) would win instead.
	cfg.Order = OrderBasic
	b, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Parent[1] != 1 {
		t.Error("basic order should elect the smaller id")
	}
}

func TestStatsPaperExample(t *testing.T) {
	g, cfg := paperConfig()
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := a.ComputeStats(g)
	if s.NumClusters != 2 {
		t.Fatalf("NumClusters = %d", s.NumClusters)
	}
	// Cluster of h: {h, b, c, i, e}; ecc(h) within it: h-b-c = 2, h-i-e = 2.
	// Cluster of j: {j, f, d, a}; ecc(j): j-d-a = 2.
	if s.MaxHeadEccentricity != 2 || math.Abs(s.MeanHeadEccentricity-2) > 1e-12 {
		t.Errorf("head eccentricity = %v/%v, want 2/2",
			s.MeanHeadEccentricity, s.MaxHeadEccentricity)
	}
	// Tree lengths: c is 2 hops from h via b; a is 2 hops from j via d;
	// e is 2 via i. Max chain = 2.
	if s.MaxTreeLength != 2 {
		t.Errorf("MaxTreeLength = %d, want 2", s.MaxTreeLength)
	}
	// Sizes: 5 and 4.
	if len(s.Sizes) != 2 || s.Sizes[0] != 5 || s.Sizes[1] != 4 {
		t.Errorf("Sizes = %v, want [5 4]", s.Sizes)
	}
	// Non-head nodes: a,b,c,d,e,f,i => chains 2,1,2,1,2,1,1 -> mean 10/7.
	if math.Abs(s.MeanTreeLength-10.0/7.0) > 1e-12 {
		t.Errorf("MeanTreeLength = %v, want %v", s.MeanTreeLength, 10.0/7.0)
	}
}

func TestStatsEmpty(t *testing.T) {
	a := &Assignment{}
	s := a.ComputeStats(topology.New(0))
	if s.NumClusters != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestMembersAndHeads(t *testing.T) {
	g, cfg := paperConfig()
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, h := range a.Heads() {
		if a.Head[h] != h {
			t.Errorf("head %d has head %d", h, a.Head[h])
		}
		for _, hu := range a.Head {
			if hu == h {
				total++
			}
		}
	}
	if total != g.N() {
		t.Errorf("clusters cover %d of %d nodes", total, g.N())
	}
}

// TestCheckInvariantsNamesIdentifiers: on a world whose identifiers are
// not its indices, every violation names the nodes involved by
// identifier, and an out-of-range parent by the index it holds.
func TestCheckInvariantsNamesIdentifiers(t *testing.T) {
	g, cfg := paperConfig()
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, g.N())
	for u := range ids {
		ids[u] = 9000 + 7*int64(u)
	}
	tests := []struct {
		name   string
		mutate func(*Assignment)
		want   string
	}{
		{"parent out of range", func(a *Assignment) { a.Parent[paperex.C] = 99 },
			fmt.Sprintf("node %d: parent index 99 out of range", ids[paperex.C])},
		{"parent not neighbor", func(a *Assignment) { a.Parent[paperex.C] = paperex.E },
			fmt.Sprintf("node %d: parent %d is not a neighbor", ids[paperex.C], ids[paperex.E])},
		{"head inconsistent", func(a *Assignment) { a.Head[paperex.C] = paperex.J },
			fmt.Sprintf("Head is %d", ids[paperex.J])},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := &Assignment{
				Parent: append([]int(nil), a.Parent...),
				Head:   append([]int(nil), a.Head...),
			}
			tt.mutate(b)
			err := CheckInvariants(g, b, false, ids)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("got %v, want an error containing %q", err, tt.want)
			}
		})
	}
	if err := CheckInvariants(g, a, false, ids[:3]); err == nil {
		t.Error("a short identifier list was accepted")
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	g, cfg := paperConfig()
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Assignment)
	}{
		{"parent out of range", func(a *Assignment) { a.Parent[0] = 99 }},
		{"head out of range", func(a *Assignment) { a.Head[0] = -1 }},
		{"parent not neighbor", func(a *Assignment) { a.Parent[paperex.C] = paperex.E }},
		{"head inconsistent", func(a *Assignment) { a.Head[paperex.C] = paperex.J }},
		{"adjacent heads", func(a *Assignment) {
			a.Parent[paperex.B] = paperex.B
			a.Head[paperex.B] = paperex.B
			a.Head[paperex.C] = paperex.B
		}},
		{"cycle", func(a *Assignment) {
			a.Parent[paperex.B] = paperex.C
			a.Parent[paperex.C] = paperex.B
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := &Assignment{
				Parent: append([]int(nil), a.Parent...),
				Head:   append([]int(nil), a.Head...),
			}
			tt.mutate(b)
			if err := CheckInvariants(g, b, false, nil); err == nil {
				t.Error("corruption not detected")
			}
		})
	}
}
