package runtime

import (
	"errors"
	"math"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/deploy"
	"selfstab/internal/geom"
	"selfstab/internal/metric"
	"selfstab/internal/paperex"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

func basicProtocol() Protocol {
	return Protocol{Order: cluster.OrderBasic}
}

func mustEngine(t *testing.T, g *topology.Graph, ids []int64, proto Protocol, m radio.Medium, seed int64) *Engine {
	t.Helper()
	e, err := New(g, ids, proto, m, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// setGraph swaps in a topology over the same nodes, as mobility does.
// Node caches are kept; the swap is opaque, so every node is re-examined.
func setGraph(e *Engine, g *topology.Graph) {
	e.g = g
	e.epoch++
	e.ActivateAll()
}

// runSteps executes exactly steps steps.
func runSteps(e *Engine, steps int) error {
	for i := 0; i < steps; i++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is a consistent copy of the network's shared state, indexed like
// the engine's graph.
type Snapshot struct {
	IDs     []int64
	TieID   []int64
	Density []float64
	HeadID  []int64
	Parent  []int64
}

// Snapshot captures the current shared state of all nodes.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		IDs:     append([]int64(nil), e.ids...),
		TieID:   make([]int64, len(e.nodes)),
		Density: make([]float64, len(e.nodes)),
		HeadID:  make([]int64, len(e.nodes)),
		Parent:  make([]int64, len(e.nodes)),
	}
	for i, n := range e.nodes {
		s.TieID[i] = n.tieID
		s.Density[i] = n.density
		s.HeadID[i] = n.headID
		s.Parent[i] = n.parent
	}
	return s
}

func randomNetwork(seed int64, n int, r float64) (*topology.Graph, []int64) {
	src := rng.New(seed)
	pts := deploy.Uniform(n, geom.UnitSquare(), src)
	return topology.FromPoints(pts, r), deploy.AssignIDs(pts, deploy.IDRandom, src)
}

func TestNewValidation(t *testing.T) {
	g, ids := randomNetwork(1, 20, 0.3)
	src := rng.New(1)
	if _, err := New(topology.New(0), nil, basicProtocol(), radio.Perfect{}, src); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := New(g, ids[:5], basicProtocol(), radio.Perfect{}, src); err == nil {
		t.Error("short ids accepted")
	}
	if _, err := New(g, ids, basicProtocol(), nil, src); err == nil {
		t.Error("nil medium accepted")
	}
	if _, err := New(g, ids, basicProtocol(), radio.Perfect{}, nil); err == nil {
		t.Error("nil source accepted")
	}
	dup := append([]int64(nil), ids...)
	dup[1] = dup[0]
	if _, err := New(g, dup, basicProtocol(), radio.Perfect{}, src); err == nil {
		t.Error("duplicate ids accepted")
	}
	bad := basicProtocol()
	bad.Order = 0
	if _, err := New(g, ids, bad, radio.Perfect{}, src); err == nil {
		t.Error("invalid order accepted")
	}
	dag := Protocol{Order: cluster.OrderBasic, UseDag: true, Gamma: 1}
	if _, err := New(g, ids, dag, radio.Perfect{}, src); err == nil {
		t.Error("gamma <= max degree accepted")
	}
	neg := basicProtocol()
	neg.CacheTTL = -1
	if _, err := New(g, ids, neg, radio.Perfect{}, src); err == nil {
		t.Error("negative ttl accepted")
	}
}

// TestStepKnowledgeSchedule is the paper's Table 2: what a node can compute
// after each step under the perfect medium.
func TestStepKnowledgeSchedule(t *testing.T) {
	g := paperex.Graph()
	ids := paperex.IDs()
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 1)

	// Step 1: every node knows exactly its 1-neighbors.
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		cache := e.Node(u).cache
		if len(cache) != len(nbrs) {
			t.Fatalf("step 1: node %s knows %d neighbors, want %d",
				paperex.Names[u], len(cache), len(nbrs))
		}
		for _, v := range nbrs {
			if !cache.has(ids[v]) {
				t.Errorf("step 1: node %s missing neighbor %s", paperex.Names[u], paperex.Names[v])
			}
		}
	}

	// Step 2: densities are exact (2-neighborhood known).
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	oracle := metric.Density{}.Values(g)
	for u := 0; u < g.N(); u++ {
		if math.Abs(e.Node(u).Density()-oracle[u]) > 1e-12 {
			t.Errorf("step 2: node %s density = %v, want %v",
				paperex.Names[u], e.Node(u).Density(), oracle[u])
		}
	}

	// Step 3: parents (fathers) are exact.
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	for u, want := range paperex.WantParent {
		if got := e.Node(u).ParentID(); got != ids[want] {
			t.Errorf("step 3: F(%s) = id %d, want %s", paperex.Names[u], got, paperex.Names[want])
		}
	}
}

// TestConvergesToOracleOnPaperExample runs the full protocol to stability
// and compares heads with the worked example.
func TestConvergesToOracleOnPaperExample(t *testing.T) {
	g := paperex.Graph()
	ids := paperex.IDs()
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 1)
	stabilized, err := e.RunUntilStable(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stabilized > 10 {
		t.Errorf("stabilized at step %d; expected a handful of steps on a 9-node graph", stabilized)
	}
	for u, want := range paperex.WantHead {
		if got := e.Node(u).HeadID(); got != ids[want] {
			t.Errorf("H(%s) = id %d, want %s", paperex.Names[u], got, paperex.Names[want])
		}
	}
}

// TestConvergesToOracleRandom cross-checks the full message-passing stack
// against the static fixpoint oracle on random geometric graphs, including
// parents.
func TestConvergesToOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, ids := randomNetwork(seed, 80, 0.18)
		e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, seed+100)
		if _, err := e.RunUntilStable(500, 5); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := cluster.Compute(g, cluster.Config{
			Values: metric.Density{}.Values(g),
			TieIDs: ids,
			Order:  cluster.OrderBasic,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := e.Assignment()
		for u := 0; u < g.N(); u++ {
			if got.Head[u] != want.Head[u] {
				t.Errorf("seed %d: node %d head = %d, oracle %d", seed, u, got.Head[u], want.Head[u])
			}
			if got.Parent[u] != want.Parent[u] {
				t.Errorf("seed %d: node %d parent = %d, oracle %d", seed, u, got.Parent[u], want.Parent[u])
			}
		}
	}
}

// TestConvergesToOracleWithFusion checks the fusion rule end to end.
func TestConvergesToOracleWithFusion(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g, ids := randomNetwork(seed, 70, 0.14)
		proto := Protocol{Order: cluster.OrderBasic, Fusion: true}
		e := mustEngine(t, g, ids, proto, radio.Perfect{}, seed+200)
		if _, err := e.RunUntilStable(500, 8); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := cluster.Compute(g, cluster.Config{
			Values: metric.Density{}.Values(g),
			TieIDs: ids,
			Order:  cluster.OrderBasic,
			Fusion: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := e.Assignment()
		for u := 0; u < g.N(); u++ {
			if got.Head[u] != want.Head[u] {
				t.Errorf("seed %d: node %d head = %d, oracle %d", seed, u, got.Head[u], want.Head[u])
			}
		}
		if err := cluster.CheckInvariants(g, got, true, nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestFusionRuntimePathExample is the 4.3 scenario at protocol level.
func TestFusionRuntimePathExample(t *testing.T) {
	g := topology.New(5)
	for _, edge := range [][2]int{{0, 1}, {1, 2}, {0, 3}, {2, 4}} {
		if err := g.AddEdge(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	ids := []int64{5, 9, 1, 7, 8}
	proto := Protocol{Order: cluster.OrderBasic, Fusion: true}
	e := mustEngine(t, g, ids, proto, radio.Perfect{}, 3)
	if _, err := e.RunUntilStable(100, 5); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 5; u++ {
		if got := e.Node(u).HeadID(); got != 1 {
			t.Errorf("node %d head id = %d, want 1 (node 2)", u, got)
		}
	}
	if !e.Node(2).IsHead() {
		t.Error("node 2 should claim headship")
	}
	if e.Node(0).IsHead() {
		t.Error("node 0 should have fused into node 2's cluster")
	}
}

// TestSelfStabilizationFromCorruption is the headline theorem: from an
// arbitrarily corrupted configuration the protocol re-converges to the
// legitimate one.
func TestSelfStabilizationFromCorruption(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, ids := randomNetwork(seed, 80, 0.18)
		e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, seed+300)
		if _, err := e.RunUntilStable(500, 5); err != nil {
			t.Fatal(err)
		}
		legit := e.Snapshot()

		e.Corrupt(1.0, CorruptAll, rng.New(seed+400))
		if _, err := e.RunUntilStable(500, 5); err != nil {
			t.Fatalf("seed %d: did not re-stabilize: %v", seed, err)
		}
		healed := e.Snapshot()
		for u := range legit.HeadID {
			if healed.HeadID[u] != legit.HeadID[u] {
				t.Errorf("seed %d: node %d head %d != legit %d",
					seed, u, healed.HeadID[u], legit.HeadID[u])
			}
			if math.Abs(healed.Density[u]-legit.Density[u]) > 1e-12 {
				t.Errorf("seed %d: node %d density not healed", seed, u)
			}
		}
	}
}

// TestSelfStabilizationPartialCorruption: corrupting half the nodes must
// also heal (faults need not be global).
func TestSelfStabilizationPartialCorruption(t *testing.T) {
	g, ids := randomNetwork(11, 100, 0.15)
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 500)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	legit := e.Snapshot()
	e.Corrupt(0.5, CorruptAll, rng.New(42))
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	healed := e.Snapshot()
	for u := range legit.HeadID {
		if healed.HeadID[u] != legit.HeadID[u] {
			t.Errorf("node %d head not healed", u)
		}
	}
}

// TestN1SelfStabilizes: with the DAG enabled, colors become locally unique
// from a cold start and again after corruption (Theorem 1).
func TestN1SelfStabilizes(t *testing.T) {
	g, ids := randomNetwork(5, 100, 0.15)
	delta := g.MaxDegree()
	proto := Protocol{
		Order:  cluster.OrderBasic,
		UseDag: true,
		Gamma:  int64(delta*delta + 1),
	}
	e := mustEngine(t, g, ids, proto, radio.Perfect{}, 600)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	if !e.DagLocallyUnique() {
		t.Fatal("colors not locally unique after stabilization")
	}

	e.Corrupt(1.0, CorruptAll, rng.New(601))
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	if !e.DagLocallyUnique() {
		t.Error("colors not locally unique after corruption recovery")
	}
	// The cluster layer must also be legitimate w.r.t. the realized colors.
	snap := e.Snapshot()
	want, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: snap.TieID,
		AppIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Assignment()
	for u := 0; u < g.N(); u++ {
		if got.Head[u] != want.Head[u] {
			t.Errorf("node %d head = %d, oracle (with realized colors) %d",
				u, got.Head[u], want.Head[u])
		}
	}
}

// TestConvergenceUnderLossyMedium: with tau < 1 stabilization still happens
// (with probability 1), just later.
func TestConvergenceUnderLossyMedium(t *testing.T) {
	g, ids := randomNetwork(9, 60, 0.2)
	m, err := radio.NewBernoulli(0.5, rng.New(700))
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, g, ids, basicProtocol(), m, 701)
	if _, err := e.RunUntilStable(2000, 20); err != nil {
		t.Fatal(err)
	}
	want, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Assignment()
	for u := 0; u < g.N(); u++ {
		if got.Head[u] != want.Head[u] {
			t.Errorf("node %d head = %d, oracle %d", u, got.Head[u], want.Head[u])
		}
	}
}

// TestConvergenceUnderSlottedMedium: same, with emergent tau.
func TestConvergenceUnderSlottedMedium(t *testing.T) {
	g, ids := randomNetwork(13, 50, 0.2)
	slots := 4 * (g.MaxDegree() + 1)
	m, err := radio.NewSlotted(slots, rng.New(800))
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, g, ids, basicProtocol(), m, 801)
	if _, err := e.RunUntilStable(3000, 20); err != nil {
		t.Fatal(err)
	}
	got := e.Assignment()
	want, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for u := 0; u < g.N(); u++ {
		if got.Head[u] != want.Head[u] {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Errorf("%d/%d heads differ from oracle under slotted medium", mismatches, g.N())
	}
}

func TestRunUntilStableBudget(t *testing.T) {
	// A two-node network under an always-lossy... we cannot make tau 0, so
	// instead use a tiny budget that cannot possibly suffice.
	g, ids := randomNetwork(31, 40, 0.2)
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 1000)
	if _, err := e.RunUntilStable(1, 10); !errors.Is(err, ErrNotStabilized) {
		t.Errorf("want ErrNotStabilized, got %v", err)
	}
}

// TestTopologyChangeHeals: moving to a new topology with TTL-based eviction
// re-stabilizes to the new oracle.
func TestTopologyChangeHeals(t *testing.T) {
	g1, ids := randomNetwork(51, 60, 0.2)
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 3}
	e := mustEngine(t, g1, ids, proto, radio.Perfect{}, 1200)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	g2, _ := randomNetwork(52, 60, 0.2) // different positions, same size
	setGraph(e, g2)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	want, err := cluster.Compute(g2, cluster.Config{
		Values: metric.Density{}.Values(g2),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Assignment()
	for u := 0; u < g2.N(); u++ {
		if got.Head[u] != want.Head[u] {
			t.Errorf("node %d head = %d, oracle %d after topology change", u, got.Head[u], want.Head[u])
		}
	}
}

// TestStickyHysteresis: under the sticky order an incumbent head with a
// density tie survives a challenger with a smaller id; under the basic
// order it does not.
func TestStickyHysteresis(t *testing.T) {
	// Two nodes, equal density (1 each), ids 9 and 2.
	g := topology.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	ids := []int64{9, 2}

	run := func(order cluster.Order) *Engine {
		e := mustEngine(t, g, ids, Protocol{Order: order}, radio.Perfect{}, 1300)
		// Pre-seed a converged incumbent configuration: node 0 (id 9) is
		// head, node 1 has joined it, and both caches already hold the
		// correct view (otherwise the cold-cache race re-runs the initial
		// election and incumbency is moot).
		e.nodes[0].density, e.nodes[1].density = 1, 1
		e.nodes[0].headID, e.nodes[0].parent = 9, 9
		e.nodes[1].headID, e.nodes[1].parent = 9, 9
		e.nodes[0].cache.put(cacheEntry{frame: Frame{
			ID: 2, TieID: 2, Density: 1, HeadID: 9, Nbrs: &NbrList{IDs: []int64{9}},
		}})
		e.nodes[1].cache.put(cacheEntry{frame: Frame{
			ID: 9, TieID: 9, Density: 1, HeadID: 9, Nbrs: &NbrList{IDs: []int64{2}},
		}})
		e.nodes[0].linksOK, e.nodes[1].linksOK = false, false // the caches were edited outside ingest
		if _, err := e.RunUntilStable(100, 5); err != nil {
			t.Fatal(err)
		}
		return e
	}

	sticky := run(cluster.OrderSticky)
	if !sticky.Node(0).IsHead() {
		t.Errorf("sticky: incumbent lost headship (head of node 1 = %d)", sticky.Node(1).HeadID())
	}
	basic := run(cluster.OrderBasic)
	if !basic.Node(1).IsHead() {
		t.Error("basic: smaller id should take headship")
	}
}

func TestSnapshotIndependentOfEngine(t *testing.T) {
	g, ids := randomNetwork(61, 20, 0.3)
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 1400)
	if err := runSteps(e, 3); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	before := snap.HeadID[0]
	snap.HeadID[0] = -999
	if e.Node(0).HeadID() == -999 {
		t.Error("snapshot aliases engine state")
	}
	snap.HeadID[0] = before
}

func TestAssignmentUnknownIDs(t *testing.T) {
	g, ids := randomNetwork(71, 20, 0.3)
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 1500)
	e.nodes[0].headID = 123456 // garbage id
	a := e.Assignment()
	if a.Head[0] != -1 {
		t.Errorf("unknown head id mapped to %d, want -1", a.Head[0])
	}
}

// TestChurnNodeDisappears: removing a node's links (crash) lets the rest
// re-stabilize; the crashed node's entries age out of caches.
func TestChurnNodeDisappears(t *testing.T) {
	g, ids := randomNetwork(81, 60, 0.2)
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 3}
	e := mustEngine(t, g, ids, proto, radio.Perfect{}, 1600)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	// Crash the node with the most neighbors (likely a head).
	victim := 0
	for u := 1; u < g.N(); u++ {
		if g.Degree(u) > g.Degree(victim) {
			victim = u
		}
	}
	g2 := g.Clone()
	g2.RemoveNode(victim)
	setGraph(e, g2)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	// No surviving node may reference the victim as head or parent.
	vid := ids[victim]
	for u := 0; u < g2.N(); u++ {
		if u == victim {
			continue
		}
		if e.Node(u).HeadID() == vid && g2.Degree(u) > 0 {
			t.Errorf("node %d still heads to crashed node", u)
		}
	}
}
