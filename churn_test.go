package selfstab

import (
	"math"
	"reflect"
	"testing"

	"selfstab/internal/rng"
	"selfstab/internal/topology"
	"selfstab/internal/traffic"
)

// churnNet builds a stabilized network configured for churn (cache TTL +
// a stable window wide enough to outlast TTL eviction).
func churnNet(t testing.TB, nodes int, seed int64, opts ...Option) *Network {
	t.Helper()
	opts = append([]Option{
		WithSeed(seed), WithRange(0.14), WithCacheTTL(4), WithStableWindow(6),
	}, opts...)
	net, err := NewRandomNetwork(nodes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(2000); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestChurnRestabilizesToOracle: after a battery of manual churn — add,
// remove, crash, sleep, wake — the network re-stabilizes and Verify's
// oracle comparison holds for the operating population.
func TestChurnRestabilizesToOracle(t *testing.T) {
	net := churnNet(t, 120, 31)
	ids := net.IDs()

	newIDs, err := net.AddNodes([]Point{{X: 0.5, Y: 0.5}, {X: 0.52, Y: 0.5}, {X: 0.9, Y: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(newIDs) != 3 || net.N() != 123 {
		t.Fatalf("AddNodes gave %v, N = %d", newIDs, net.N())
	}
	if err := net.RemoveNodes(ids[3], ids[17]); err != nil {
		t.Fatal(err)
	}
	if err := net.CrashNodes(ids[5], newIDs[0]); err != nil {
		t.Fatal(err)
	}
	if err := net.SleepNodes(ids[8], ids[9]); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(3000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatalf("after churn battery: %v", err)
	}
	alive, sleeping, dead := net.Population()
	if alive != 119 || sleeping != 2 || dead != 2 {
		t.Fatalf("population = %d/%d/%d, want 119 alive, 2 sleeping, 2 dead", alive, sleeping, dead)
	}

	// Sleeping nodes are hidden from the clustering and their state is
	// frozen.
	i8, _ := net.IndexOf(ids[8])
	st, err := net.State(i8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != NodeSleeping {
		t.Fatalf("status = %v, want sleeping", st.Status)
	}
	for _, c := range net.Clusters() {
		for _, m := range c.Members {
			if m == ids[8] || m == ids[3] {
				t.Fatalf("dead/sleeping node %d listed in a cluster", m)
			}
		}
	}

	if err := net.WakeNodes(ids[8], ids[9]); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(3000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatalf("after wake: %v", err)
	}
	cs := net.ConvergenceStats()
	if len(cs.Disruptions) == 0 {
		t.Fatal("manual churn left no ledger records")
	}
}

// TestChurnAPIValidation covers the error surface of the lifecycle calls.
func TestChurnAPIValidation(t *testing.T) {
	net := churnNet(t, 30, 7)
	ids := net.IDs()
	if _, err := net.AddNodes(nil); err == nil {
		t.Error("empty AddNodes accepted")
	}
	if _, err := net.AddNodes([]Point{{X: 2, Y: 2}}); err == nil {
		t.Error("out-of-region position accepted")
	}
	if err := net.RemoveNodes(); err == nil {
		t.Error("empty RemoveNodes accepted")
	}
	if err := net.RemoveNodes(99999); err == nil {
		t.Error("unknown id accepted")
	}
	if err := net.WakeNodes(ids[0]); err == nil {
		t.Error("waking an awake node accepted")
	}
	if err := net.RemoveNodes(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := net.RemoveNodes(ids[0]); err == nil {
		t.Error("double remove accepted")
	}
	if err := net.CrashNodes(ids[0]); err == nil {
		t.Error("crashing a dead node accepted")
	}
	if err := net.SleepNodes(ids[0]); err == nil {
		t.Error("sleeping a dead node accepted")
	}

	// AttachChurn validation.
	if err := net.AttachChurn(ChurnConfig{}); err == nil {
		t.Error("all-zero churn config accepted")
	}
	if err := net.AttachChurn(ChurnConfig{CrashRate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	noTTL, err := NewRandomNetwork(20, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := noTTL.AttachChurn(ChurnConfig{CrashRate: 0.1}); err == nil {
		t.Error("churn without WithCacheTTL accepted")
	}
}

// TestTrafficSurvivesChurn: flows whose endpoints die or sleep become
// accounted dead-endpoint drops — never a panic or an index error — and
// delivery to a slept endpoint resumes after it wakes.
func TestTrafficSurvivesChurn(t *testing.T) {
	net := churnNet(t, 150, 91)
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		Flows: []Flow{
			CBRFlow(ids[0], ids[1], 1),
			CBRFlow(ids[2], ids[3], 1),
			CBRFlow(ids[4], ids[5], 1),
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(30); err != nil {
		t.Fatal(err)
	}
	if err := net.RemoveNodes(ids[1]); err != nil { // flow 0's sink dies
		t.Fatal(err)
	}
	if err := net.SleepNodes(ids[3]); err != nil { // flow 1's sink sleeps
		t.Fatal(err)
	}
	if err := net.Run(30); err != nil {
		t.Fatal(err)
	}
	s, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s)
	if s.DropsDeadEndpoint == 0 {
		t.Fatalf("no dead-endpoint drops after killing a sink: %+v", s)
	}
	deliveredAsleep := s.PerFlow[1].Delivered

	if err := net.WakeNodes(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(60); err != nil {
		t.Fatal(err)
	}
	s2, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s2)
	if s2.PerFlow[1].Delivered <= deliveredAsleep {
		t.Errorf("delivery to the woken sink did not resume: %+v", s2.PerFlow[1])
	}
	if s2.PerFlow[0].Delivered != s.PerFlow[0].Delivered {
		t.Errorf("packets delivered to a dead node: %+v", s2.PerFlow[0])
	}
}

// TestSelfFlowAPI is the API-level Src == Dst regression: a self-flow is
// accepted, every packet is delivered at injection with zero hops, and
// the ledger counts it.
func TestSelfFlowAPI(t *testing.T) {
	net := trafficNet(t, 40, 3)
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		Flows: []Flow{CBRFlow(ids[7], ids[7], 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(25); err != nil {
		t.Fatal(err)
	}
	s, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s)
	if s.Offered != 25 || s.Delivered != 25 || s.InFlight != 0 {
		t.Fatalf("self-flow ledger: %+v", s)
	}
	if s.MeanHops != 0 || s.LatencyMax != 0 {
		t.Fatalf("self-flow hops/latency: %+v", s)
	}
	if s.PerFlow[0].SrcID != ids[7] || s.PerFlow[0].DstID != ids[7] || s.PerFlow[0].Delivered != 25 {
		t.Fatalf("per-flow self-flow ledger: %+v", s.PerFlow[0])
	}
}

// hopDistances is a plain BFS over g: the hop distance from u to every
// node, -1 where unreachable.
func hopDistances(g *topology.Graph, u int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	for queue := []int{u}; len(queue) > 0; queue = queue[1:] {
		for _, w := range g.Neighbors(queue[0]) {
			if dist[w] < 0 {
				dist[w] = dist[queue[0]] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// TestFlatDistMatchesBFS pins the Dist hook: the goal-directed search
// agrees with the full BFS row for every pair (self 0, unreachable -1) and
// allocates nothing once its scratch has grown. The worlds are chosen to
// catch a bound that overestimates by a hair: lattices whose spacing
// equals the range (where rounding keeps only some of the lattice edges,
// so hops and the distance bound coincide), just under it, and at the
// diagonal and double reach; a hotspot deployment; a world moved by
// SetPositions; and one churned into unreachable pairs and compacted.
func TestFlatDistMatchesBFS(t *testing.T) {
	check := func(t *testing.T, net *Network) (unreachable int) {
		t.Helper()
		for src := 0; src < net.N(); src++ {
			row := hopDistances(net.grid.Graph(), src)
			for dst, want := range row {
				if got := net.flatDist(src, dst); got != want {
					t.Fatalf("flatDist(%d,%d) = %d, BFS row says %d", src, dst, got, want)
				}
				if want < 0 {
					unreachable++
				}
			}
		}
		return unreachable
	}

	t.Run("moved", func(t *testing.T) {
		net := trafficNet(t, 80, 11)
		// Strand node 0 in a corner so some pairs are unreachable.
		pos := net.Positions()
		pos[0] = Point{X: 0.999, Y: 0.999}
		pos[1] = Point{X: 0.001, Y: 0.001}
		if err := net.SetPositions(pos); err != nil {
			t.Fatal(err)
		}
		if check(t, net) == 0 {
			t.Fatal("no unreachable pair: the -1 case went untested")
		}
		allocs := testing.AllocsPerRun(200, func() {
			_ = net.flatDist(3, 7)
			_ = net.flatDist(0, 9)
			_ = net.flatDist(5, 5)
		})
		if allocs != 0 {
			t.Fatalf("flatDist allocates %.1f/op in steady state, want 0", allocs)
		}
		for i := range pos {
			pos[i].X = 1 - pos[i].X
			pos[i].Y = clamp01(pos[i].Y + 0.05)
		}
		pos[2] = Point{X: 0.5, Y: 0.001}
		if err := net.SetPositions(pos); err != nil {
			t.Fatal(err)
		}
		check(t, net)
	})

	const side, spacing = 20, 1.0 / 20 // NewGridNetwork's lattice pitch
	for _, tc := range []struct {
		name string
		r    float64
	}{
		{"grid/range=spacing", spacing},
		{"grid/range=spacing*(1+1e-10)", spacing * (1 + 1e-10)},
		{"grid/range=sqrt2*spacing", math.Sqrt2 * spacing},
		{"grid/range=2*spacing", 2 * spacing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := NewGridNetwork(side, side, WithRange(tc.r))
			if err != nil {
				t.Fatal(err)
			}
			check(t, net)
		})
	}

	t.Run("hotspot", func(t *testing.T) {
		net, err := NewHotspotNetwork(200, 4, 0.08, WithSeed(5), WithRange(0.08))
		if err != nil {
			t.Fatal(err)
		}
		check(t, net)
	})

	t.Run("churned", func(t *testing.T) {
		net := trafficNet(t, 150, 3)
		ids := net.IDs()
		if err := net.CrashNodes(ids[4], ids[40]); err != nil {
			t.Fatal(err)
		}
		if err := net.SleepNodes(ids[9], ids[120]); err != nil {
			t.Fatal(err)
		}
		if err := net.RemoveNodes(ids[17], ids[77], ids[101]); err != nil {
			t.Fatal(err)
		}
		if _, err := net.AddNodes([]Point{{X: 0.02, Y: 0.98}, {X: 0.5, Y: 0.5}, {X: 0.51, Y: 0.52}}); err != nil {
			t.Fatal(err)
		}
		if removed, err := net.Compact(); err != nil || removed != 3 {
			t.Fatalf("Compact removed %d slots, err %v; want the 3 removed", removed, err)
		}
		if check(t, net) == 0 {
			t.Fatal("no unreachable pair: the -1 case went untested")
		}
	})
}

// checkBaselines attaches cfg, whose flows must all be unicast, and then
// swaps in a data plane built the same way except that its Dist hook
// checks every answer against a BFS of the graph at that call. It
// returns the calls made and how many read -1.
func checkBaselines(t *testing.T, net *Network, cfg TrafficConfig) (calls, unreachable *int) {
	t.Helper()
	if err := net.AttachTraffic(cfg); err != nil {
		t.Fatal(err)
	}
	specs, err := net.resolveFlows(cfg.Flows)
	if err != nil {
		t.Fatal(err)
	}
	calls, unreachable = new(int), new(int)
	hooks := net.trafficHooks()
	dist := hooks.Dist
	hooks.Dist = func(src, dst int) int {
		got := dist(src, dst)
		if want := hopDistances(net.grid.Graph(), src)[dst]; got != want {
			t.Fatalf("step %d: baseline %d→%d = %d, BFS on the graph at delivery says %d", net.StepCount(), src, dst, got, want)
		}
		*calls++
		if got < 0 {
			*unreachable++
		}
		return got
	}
	if net.traffic, err = traffic.New(net.N(), cfg, specs, hooks, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	return calls, unreachable
}

// TestStretchBaselineMatchesBFSAtDelivery pins the baseline the data
// plane divides by: through joins, departures, crashes, sleeps and a
// compaction under traffic, every Dist it asks equals the BFS distance on
// the graph at that call, the topology at delivery. A packet whose source
// falls asleep before it lands is delivered with no stretch sample: the
// sleeping source has no links, so there is no flat path to compare with.
func TestStretchBaselineMatchesBFSAtDelivery(t *testing.T) {
	t.Run("churned", func(t *testing.T) {
		net := churnNet(t, 150, 13)
		ids := net.IDs()
		var flows []Flow
		for i := 0; i < 30; i++ {
			flows = append(flows, CBRFlow(ids[(i*7)%len(ids)], ids[(i*13+75)%len(ids)], 0.5))
		}
		calls, unreachable := checkBaselines(t, net, TrafficConfig{Flows: flows})
		if err := net.AttachChurn(ChurnConfig{ArrivalRate: 0.3, DepartureRate: 0.2, CrashRate: 0.2, SleepRate: 0.3, SleepSteps: 8}); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(60); err != nil {
			t.Fatal(err)
		}
		if removed, err := net.Compact(); err != nil || removed == 0 {
			t.Fatalf("Compact removed %d slots, err %v; want the departed ones", removed, err)
		}
		if err := net.Run(60); err != nil {
			t.Fatal(err)
		}
		s, err := net.TrafficStats()
		if err != nil {
			t.Fatal(err)
		}
		checkTrafficLedger(t, s)
		if *calls < 30 || *calls >= int(s.Delivered) || s.MeanStretch < 1 {
			t.Fatalf("%d baselines for %d deliveries, mean stretch %v: the churned run exercised too little", *calls, s.Delivered, s.MeanStretch)
		}
		t.Logf("%d baselines (%d unreachable) for %d deliveries", *calls, *unreachable, s.Delivered)
	})

	t.Run("source asleep at delivery", func(t *testing.T) {
		const side = 8
		net, err := NewGridNetwork(side, side, WithRange(1.2/side), WithCacheTTL(4), WithStableWindow(6))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Stabilize(2000); err != nil {
			t.Fatal(err)
		}
		ids := net.IDs()
		src, dst := ids[0], ids[6] // six hops along the first row
		at := net.StepCount() + 1
		one := CBRFlow(src, dst, 1)
		one.Start, one.Stop = at, at
		calls, unreachable := checkBaselines(t, net, TrafficConfig{Flows: []Flow{one}})
		if err := net.Step(); err != nil { // injected and one hop on its way
			t.Fatal(err)
		}
		if err := net.SleepNodes(src); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(20); err != nil {
			t.Fatal(err)
		}
		s, err := net.TrafficStats()
		if err != nil {
			t.Fatal(err)
		}
		if s.Offered != 1 || s.Delivered != 1 || s.MeanHops < 6 {
			t.Fatalf("the one packet was not delivered: %+v", s)
		}
		if s.MeanStretch != 0 || *calls != 1 || *unreachable != 1 {
			t.Fatalf("mean stretch %v from %d baselines (%d unreachable): a sleeping source must leave no sample", s.MeanStretch, *calls, *unreachable)
		}
	})
}

// TestInjectFaultsClampedAtNetworkLevel: frac outside [0, 1] is safe at
// the public surface — negative is a no-op, > 1 corrupts everything and
// heals.
func TestInjectFaultsClampedAtNetworkLevel(t *testing.T) {
	net := churnNet(t, 60, 17)
	before := net.Clusters()
	net.InjectFaults(-3)
	if !reflect.DeepEqual(before, net.Clusters()) {
		t.Fatal("negative fault fraction corrupted state")
	}
	net.InjectFaults(7.5)
	if _, err := net.Stabilize(2000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatalf("did not heal from frac > 1: %v", err)
	}
	cs := net.ConvergenceStats()
	found := false
	for _, d := range cs.Disruptions {
		if d.Kinds&ChurnFault != 0 {
			found = true
		}
	}
	if !found {
		t.Error("fault injection left no ledger episode")
	}
}

// TestChurnPreStepAllocationFree is the steady-state allocation contract
// of the churn pre-step phase: at 1000 nodes under ~1%/step crash +
// duty-cycle churn, the scheduled phase itself (Poisson draws, victim
// selection, status flips, incremental topology repair, disruption
// tracking) allocates nothing once warm.
func TestChurnPreStepAllocationFree(t *testing.T) {
	net := churnNet(t, 1000, 555, WithRange(0.1))
	if err := net.AttachChurn(ChurnConfig{
		CrashRate:  4,
		SleepRate:  3,
		SleepSteps: 12,
	}); err != nil {
		t.Fatal(err)
	}
	// Warm: grow every reusable scratch (disruption sites, ledger BFS is
	// never hit while churn keeps the episode open) and let sleeps/wakes
	// cycle.
	if err := net.Run(60); err != nil {
		t.Fatal(err)
	}
	step := net.StepCount()
	allocs := testing.AllocsPerRun(50, func() {
		step++
		if err := net.churnPreStep(step); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("churn pre-step allocates %.2f/op at steady state, want 0", allocs)
	}
}

// TestStabilizeClosesEpisodeWithDefaultWindow: with the default stable
// window (5) and a wider cache TTL, Stabilize must widen its quiet
// window to the convergence window, so reading the ledger right after
// Stabilize always includes the final episode.
func TestStabilizeClosesEpisodeWithDefaultWindow(t *testing.T) {
	net, err := NewRandomNetwork(80, WithSeed(77), WithRange(0.14), WithCacheTTL(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(2000); err != nil {
		t.Fatal(err)
	}
	ids := net.IDs()
	if err := net.RemoveNodes(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(2000); err != nil {
		t.Fatal(err)
	}
	cs := net.ConvergenceStats()
	if cs.Open || len(cs.Disruptions) != 1 {
		t.Fatalf("episode not closed by Stabilize: open=%v, %d records", cs.Open, len(cs.Disruptions))
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveScheduledSleeperNeverWoken: removing a node the churn
// schedule put to sleep must disarm its wake deadline — the schedule
// must not try to wake a dead node at the deadline and abort every
// subsequent step.
func TestRemoveScheduledSleeperNeverWoken(t *testing.T) {
	net := churnNet(t, 60, 19)
	if err := net.AttachChurn(ChurnConfig{CrashRate: 0.01, SleepSteps: 5}); err != nil {
		t.Fatal(err)
	}
	// Simulate the schedule sleeping node 0 with a due wake, then the
	// user removing it before the deadline.
	if err := net.engine.Sleep(0, net.StepCount()+5); err != nil {
		t.Fatal(err)
	}
	if err := net.RemoveNodes(net.IDs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(20); err != nil {
		t.Fatalf("schedule tried to wake the removed sleeper: %v", err)
	}
}

// TestStabilizeWidensWindowWhileChurnAttached: with a schedule attached,
// disruptions can open mid-run, so Stabilize must use the convergence
// window even when no episode is open at entry — otherwise a departure
// followed by a short quiet stretch (< cache TTL) is declared stable
// before eviction and the episode dangles open.
func TestStabilizeWidensWindowWhileChurnAttached(t *testing.T) {
	net, err := NewRandomNetwork(60,
		WithSeed(6), WithRange(0.14), WithCacheTTL(8), WithStableWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(2000); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachChurn(ChurnConfig{DepartureRate: 0.05}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(20000); err != nil {
		t.Fatal(err)
	}
	if cs := net.ConvergenceStats(); cs.Open {
		t.Fatalf("Stabilize returned with the episode still converging: %+v", cs)
	}
	net.DetachChurn()
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsOperatingPopulationUnderChurn is the ROADMAP regression: Stats
// and BuildHierarchy must restrict themselves to the operating population
// — a removed or sleeping node keeps its dense index slot but must not
// surface as a phantom singleton cluster.
func TestStatsOperatingPopulationUnderChurn(t *testing.T) {
	net := churnNet(t, 100, 47)
	base := net.Stats()
	baseClusters := len(net.Clusters())
	if base.Clusters != baseClusters {
		t.Fatalf("pre-churn Stats.Clusters %d != len(Clusters()) %d", base.Clusters, baseClusters)
	}

	ids := net.IDs()
	if err := net.RemoveNodes(ids[0], ids[1], ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := net.SleepNodes(ids[3], ids[4]); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(3000); err != nil {
		t.Fatal(err)
	}

	s := net.Stats()
	live := len(net.Clusters())
	if s.Clusters != live {
		t.Errorf("Stats.Clusters %d counts dead/sleeping slots (live clustering has %d)", s.Clusters, live)
	}

	levels, err := net.BuildHierarchy(3)
	if err != nil {
		t.Fatal(err)
	}
	gone := map[int64]bool{ids[0]: true, ids[1]: true, ids[2]: true, ids[3]: true, ids[4]: true}
	covered := 0
	for _, c := range levels[0].Clusters {
		for _, m := range c.Members {
			if gone[m] {
				t.Errorf("dead/sleeping node %d clustered at hierarchy level 0", m)
			}
			covered++
		}
	}
	alive, _, _ := net.Population()
	if covered != alive {
		t.Errorf("hierarchy level 0 covers %d nodes, operating population is %d", covered, alive)
	}
	if len(levels[0].Clusters) != live {
		t.Errorf("hierarchy level 0 has %d clusters, live clustering has %d", len(levels[0].Clusters), live)
	}
}

// TestFlashCrowdJoinStaysLocal: fifty nodes powering up in one step
// inside a small block (the disaster-area arrival of the paper's
// introduction) are one join episode, and the re-election they cause
// stays near the block. On this 400-node world, about 14 hops across,
// seeds 1-20 read an affected radius of 2-5 hops (seed 1: 3, the same
// as a 150-node crowd on 1 000 nodes); 5 is that measured ceiling.
func TestFlashCrowdJoinStaysLocal(t *testing.T) {
	const joins, maxRadius = 50, 5
	net, err := NewRandomNetwork(400, WithSeed(1), WithRange(0.1), WithCacheTTL(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(5000); err != nil {
		t.Fatal(err)
	}
	before := len(net.ConvergenceStats().Disruptions)
	pts := make([]Point, joins)
	for i := range pts {
		pts[i] = Point{X: 0.3 + 0.005*float64(i%10), Y: 0.7 + 0.01*float64(i/10)}
	}
	if _, err := net.AddNodes(pts); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(5000); err != nil {
		t.Fatal(err)
	}
	recs := net.ConvergenceStats().Disruptions[before:]
	if len(recs) != 1 {
		t.Fatalf("the crowd opened %d episodes, want 1: %+v", len(recs), recs)
	}
	if r := recs[0]; r.Kinds != ChurnJoin || r.Ops != joins {
		t.Errorf("episode %+v, want kind join with %d ops", r, joins)
	}
	if r := recs[0].AffectedRadius; r < 0 || r > maxRadius {
		t.Errorf("affected radius %d hops, want within [0, %d]", r, maxRadius)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}
