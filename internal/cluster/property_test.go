package cluster

import (
	"testing"
	"testing/quick"

	"selfstab/internal/metric"
	"selfstab/internal/rng"
)

// TestOrderTransitivityQuick: ≺ is transitive for arbitrary rank triples
// (quick-generated), for both order variants.
func TestOrderTransitivityQuick(t *testing.T) {
	gen := func(seed int64) [3]Rank {
		src := rng.New(seed)
		var rs [3]Rank
		for i := range rs {
			rs[i] = Rank{
				Value:  float64(src.Intn(4)), // small domain to force ties
				TieID:  int64(src.Intn(4)),
				IsHead: src.Intn(2) == 0,
				AppID:  src.Int63() % 100,
			}
		}
		return rs
	}
	for _, order := range []Order{OrderBasic, OrderSticky} {
		f := func(seed int64) bool {
			rs := gen(seed)
			a, b, c := rs[0], rs[1], rs[2]
			if order.Less(a, b) && order.Less(b, c) && !order.Less(a, c) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("order %v: %v", order, err)
		}
	}
}

// TestOrderAntisymmetryQuick: never both a ≺ b and b ≺ a.
func TestOrderAntisymmetryQuick(t *testing.T) {
	f := func(v1, v2 float64, t1, t2, a1, a2 int64, h1, h2 bool) bool {
		a := Rank{Value: v1, TieID: t1, IsHead: h1, AppID: a1}
		b := Rank{Value: v2, TieID: t2, IsHead: h2, AppID: a2}
		for _, order := range []Order{OrderBasic, OrderSticky} {
			if order.Less(a, b) && order.Less(b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOrderTotalityQuick: distinct AppIDs make ≺ total.
func TestOrderTotalityQuick(t *testing.T) {
	f := func(v1, v2 float64, t1, t2 int64, h1, h2 bool) bool {
		a := Rank{Value: v1, TieID: t1, IsHead: h1, AppID: 1}
		b := Rank{Value: v2, TieID: t2, IsHead: h2, AppID: 2}
		for _, order := range []Order{OrderBasic, OrderSticky} {
			if !order.Less(a, b) && !order.Less(b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPartitionProperty: every node belongs to exactly one cluster whose
// head is a head, on random instances, with and without fusion.
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		fusion := seed%2 == 0
		extra := int(seed % 41)
		if extra < 0 {
			extra = -extra
		}
		g, cfg := randomInstance(seed, 40+extra, 0.15, OrderBasic, fusion)
		a, err := Compute(g, cfg)
		if err != nil {
			return false
		}
		for u := 0; u < g.N(); u++ {
			h := a.Head[u]
			if h < 0 || h >= g.N() || a.Head[h] != h {
				return false
			}
			if (a.Parent[u] == u) != (h == u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFixpointIdempotence: recomputing with PrevHead = the previous result
// converges in 0 extra rounds and returns the identical assignment (the
// legitimate configuration is a fixpoint).
func TestFixpointIdempotence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		fusion := seed%2 == 0
		order := OrderBasic
		if seed%3 == 0 {
			order = OrderSticky
		}
		g, cfg := randomInstance(seed, 80, 0.14, order, fusion)
		a, err := Compute(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.PrevHead = a.Head
		b, err := Compute(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			if a.Head[u] != b.Head[u] {
				t.Errorf("seed %d: node %d head changed on recompute: %d -> %d",
					seed, u, a.Head[u], b.Head[u])
			}
		}
		if b.Rounds > 1 {
			t.Errorf("seed %d: fixpoint took %d rounds to confirm", seed, b.Rounds)
		}
	}
}

// TestHeadsAreLocalMaxima: without fusion, the head set is exactly the set
// of ≺-local maxima.
func TestHeadsAreLocalMaxima(t *testing.T) {
	f := func(seed int64) bool {
		g, cfg := randomInstance(seed, 60, 0.15, OrderBasic, false)
		a, err := Compute(g, cfg)
		if err != nil {
			return false
		}
		rank := func(u int) Rank {
			return Rank{Value: cfg.Values[u], TieID: cfg.TieIDs[u], AppID: cfg.TieIDs[u]}
		}
		for u := 0; u < g.N(); u++ {
			isMax := true
			for _, v := range g.Neighbors(u) {
				if cfg.Order.Less(rank(u), rank(v)) {
					isMax = false
					break
				}
			}
			if isMax != (a.Parent[u] == u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRoundsBoundedByChainLength: the fixpoint converges within
// MaxTreeLength + small-constant rounds (Lemma 2's structure).
func TestRoundsBoundedByChainLength(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, cfg := randomInstance(seed, 100, 0.12, OrderBasic, false)
		a, err := Compute(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := a.ComputeStats(g)
		if a.Rounds > s.MaxTreeLength+2 {
			t.Errorf("seed %d: %d rounds for max chain %d", seed, a.Rounds, s.MaxTreeLength)
		}
	}
}

// TestDensityTiesResolveDeterministically: cloned configs give identical
// assignments (no hidden map-order dependence).
func TestDensityTiesResolveDeterministically(t *testing.T) {
	g, cfg := randomInstance(3, 80, 0.14, OrderBasic, true)
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b, err := Compute(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			if a.Head[u] != b.Head[u] || a.Parent[u] != b.Parent[u] {
				t.Fatal("nondeterministic assignment")
			}
		}
	}
}

// TestStatsSizesSumToN: cluster sizes always partition the node count.
func TestStatsSizesSumToN(t *testing.T) {
	f := func(seed int64) bool {
		g, cfg := randomInstance(seed, 50, 0.18, OrderBasic, false)
		a, err := Compute(g, cfg)
		if err != nil {
			return false
		}
		s := a.ComputeStats(g)
		total := 0
		for _, sz := range s.Sizes {
			total += sz
		}
		return total == g.N() && s.NumClusters == len(s.Sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMetricValuesDriveElection: raising one node's value to the global
// maximum makes it a head.
func TestMetricValuesDriveElection(t *testing.T) {
	g, cfg := randomInstance(7, 60, 0.15, OrderBasic, false)
	cfg.Values = metric.Degree{}.Values(g) // any metric works
	boost := 17 % g.N()
	cfg.Values[boost] = 1e9
	a, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Parent[boost] != boost {
		t.Error("globally maximal node not elected")
	}
	for _, v := range g.Neighbors(boost) {
		if a.Head[v] != boost {
			t.Errorf("neighbor %d of the global max joined %d", v, a.Head[v])
		}
	}
}
