package selfstab

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/rng"
	"selfstab/internal/routing"
)

func TestRouteSameCluster(t *testing.T) {
	net, err := NewRandomNetwork(100, WithSeed(40), WithRange(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	clusters := net.Clusters()
	var big Cluster
	for _, c := range clusters {
		if len(c.Members) > len(big.Members) {
			big = c
		}
	}
	if len(big.Members) < 2 {
		t.Skip("no multi-member cluster")
	}
	path, err := net.Route(big.Members[0], big.Members[len(big.Members)-1])
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != big.Members[0] || path[len(path)-1] != big.Members[len(big.Members)-1] {
		t.Errorf("path endpoints wrong: %v", path)
	}
	// Every hop is a radio neighbor of the previous one.
	for i := 1; i < len(path); i++ {
		prev, _ := net.IndexOf(path[i-1])
		cur, _ := net.IndexOf(path[i])
		if !net.grid.Graph().HasEdge(prev, cur) {
			t.Fatalf("path uses non-edge %d-%d", path[i-1], path[i])
		}
	}
}

func TestRouteAcrossClusters(t *testing.T) {
	net, err := NewRandomNetwork(150, WithSeed(41), WithRange(0.13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	clusters := net.Clusters()
	if len(clusters) < 2 {
		t.Skip("single cluster network")
	}
	// Try head-to-head routes between several cluster pairs; connected
	// pairs must route, disconnected ones must return ErrUnreachable.
	routed := 0
	for i := 0; i < len(clusters)-1 && routed < 3; i++ {
		path, err := net.Route(clusters[i].HeadID, clusters[i+1].HeadID)
		if errors.Is(err, ErrUnreachable) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(path) < 2 {
			t.Errorf("cross-cluster path too short: %v", path)
		}
		routed++
	}
	if routed == 0 {
		t.Skip("no connected cluster pairs sampled")
	}
}

func TestRouteUnknownIDs(t *testing.T) {
	net, err := NewRandomNetwork(20, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Route(99999, 0); err == nil {
		t.Error("unknown src accepted")
	}
	if _, err := net.Route(0, 99999); err == nil {
		t.Error("unknown dst accepted")
	}
}

// TestRoutePartitionedNetwork: Route between disconnected components
// returns ErrUnreachable for every pair orientation, and intra-component
// routing keeps working.
func TestRoutePartitionedNetwork(t *testing.T) {
	pts := []Point{
		{X: 0.1, Y: 0.1}, {X: 0.12, Y: 0.1}, {X: 0.1, Y: 0.12},
		{X: 0.9, Y: 0.9}, {X: 0.88, Y: 0.9}, {X: 0.9, Y: 0.88},
	}
	net, err := NewNetwork(pts, WithSeed(8), WithRange(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	ids := net.IDs()
	for _, a := range []int{0, 1, 2} {
		for _, b := range []int{3, 4, 5} {
			if _, err := net.Route(ids[a], ids[b]); !errors.Is(err, ErrUnreachable) {
				t.Errorf("Route(%d,%d) = %v, want ErrUnreachable", ids[a], ids[b], err)
			}
			if _, err := net.Route(ids[b], ids[a]); !errors.Is(err, ErrUnreachable) {
				t.Errorf("Route(%d,%d) = %v, want ErrUnreachable", ids[b], ids[a], err)
			}
		}
	}
	if _, err := net.Route(ids[0], ids[2]); err != nil {
		t.Errorf("intra-component route failed: %v", err)
	}
}

// TestRouteSingleNodeNetwork: the degenerate one-node network routes to
// itself.
func TestRouteSingleNodeNetwork(t *testing.T) {
	net, err := NewNetwork([]Point{{X: 0.5, Y: 0.5}}, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(100); err != nil {
		t.Fatal(err)
	}
	id := net.IDs()[0]
	path, err := net.Route(id, id)
	if err != nil || len(path) != 1 || path[0] != id {
		t.Errorf("Route(self, self) = (%v, %v), want ([%d], nil)", path, err, id)
	}
}

// TestRoutingCacheInvalidation pins the epoch contract: repeated queries
// on a quiescent network keep the table (and the trees filled so far), a
// move that changes no edge keeps it too, and anything that can change
// the clustering or topology (faults, mobility that moves an edge) resets
// it.
func TestRoutingCacheInvalidation(t *testing.T) {
	net, err := NewRandomNetwork(120, WithSeed(44), WithRange(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	// builtAt returns the engine epoch the table was last reset at.
	builtAt := func() uint64 {
		t.Helper()
		if _, err := net.hierTable(); err != nil {
			t.Fatal(err)
		}
		return net.routeTabEpoch
	}
	e1 := builtAt()
	if builtAt() != e1 {
		t.Error("quiescent network reset the routing table between queries")
	}
	// Steps on a stabilized network change nothing: the table survives.
	if err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	if builtAt() != e1 {
		t.Error("no-op steps invalidated the routing table")
	}
	// Fault injection must invalidate.
	net.InjectFaults(1)
	e4 := builtAt()
	if e4 == e1 {
		t.Error("fault injection did not invalidate the routing table")
	}
	// A move that changes no edge leaves the graph's version, and so the
	// table, where they were.
	if err := net.SetPositions(net.Positions()); err != nil {
		t.Fatal(err)
	}
	if builtAt() != e4 {
		t.Error("an edge-preserving move invalidated the routing table")
	}
	// Mobility that moves edges must invalidate: shrinking the layout
	// toward the centre brings pairs into range.
	pos := net.Positions()
	for i := range pos {
		pos[i].X = 0.5 + 0.8*(pos[i].X-0.5)
		pos[i].Y = 0.5 + 0.8*(pos[i].Y-0.5)
	}
	if err := net.SetPositions(pos); err != nil {
		t.Fatal(err)
	}
	if builtAt() == e4 {
		t.Error("mobility did not invalidate the hierarchical table")
	}
}

// liveTableLegs are the traces the live-table oracles run. churn moves
// every epoch there is: arrivals grow the buffers, auto-compaction
// renumbers them, traffic, energy rotation and depletion, two fault
// injections and one mobility step. rotation keeps the topology fixed and
// moves only heads (battery-driven rotation under traffic). move shifts
// two nodes every step with SetPositions (each node once per 80 steps,
// the direction flipping every 40), so edges come and go and components
// split and merge without a lifecycle op.
var liveTableLegs = []struct {
	name    string
	workers []int
	steps   int
}{
	{"churn", []int{1, 4}, 140},
	{"rotation", []int{1}, 120},
	{"move", []int{1}, 80},
}

// liveTableTrace runs one leg and calls check after every step with the
// network, its live table, brought up to date the way Route and the data
// plane bring it, and the slot count before the step.
func liveTableTrace(t *testing.T, leg string, workers, steps int, check func(step int, net *Network, live *routing.Hierarchical, slots int)) {
	t.Helper()
	net := churnNet(t, 160, 1606)
	net.SetParallelism(workers)
	if err := net.AttachTraffic(TrafficConfig{QueueCap: 8, Flows: mixedWorkload(net, 12)}); err != nil {
		t.Fatal(err)
	}
	battery := EnergyConfig{Capacity: 4, Rotation: true}
	if leg == "rotation" {
		// Fine levels on a small battery re-elect heads every few steps,
		// and no battery runs out within the leg.
		battery = EnergyConfig{Capacity: 0.5, Rotation: true, RotationLevels: 16}
	}
	if err := net.AttachEnergy(battery); err != nil {
		t.Fatal(err)
	}
	if leg == "churn" {
		if err := net.AttachChurn(ChurnConfig{
			ArrivalRate: 0.5, DepartureRate: 0.3, CrashRate: 0.2, SleepRate: 0.3, SleepSteps: 6,
		}); err != nil {
			t.Fatal(err)
		}
		if err := net.SetAutoCompact(0.05); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < steps; step++ {
		switch {
		case leg == "churn" && (step == 40 || step == 95):
			net.InjectFaults(0.3) // scrambled heads and parents
		case leg == "churn" && step == 70, leg == "move":
			pos := net.Positions()
			for i := range pos {
				if leg == "churn" {
					pos[i].X = clamp01(pos[i].X + 0.03)
				} else if i%80 == step%80 {
					pos[i].X = clamp01(pos[i].X + 0.04*float64(1-2*(step/40%2)))
					pos[i].Y = clamp01(pos[i].Y + 0.02)
				}
			}
			if err := net.SetPositions(pos); err != nil {
				t.Fatal(err)
			}
		}
		slots := net.N()
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
		live, err := net.hierTable()
		if err != nil {
			t.Fatal(err)
		}
		check(step, net, live, slots)
	}
}

// TestLiveTableMatchesFreshBuild is the root half of the table oracle.
// internal/routing's TestHierarchicalMatchesReference shows that a table
// answers as the eager reference builder does; this test shows that the
// one table the Network keeps — repaired in place from the nodes whose
// head or parent moved and the nodes whose edges moved, rebuilt in full
// after Compact — is at every step boundary the table a fresh build from
// the same graph and assignment would be: the gateway kept between each
// pair of adjacent cluster labels, every (u, v) pair's NextHop, and a
// sample of Routes. Through the table's work counters it shows that
// the repair ran, kept trees, and gave way to a full build at every
// compaction, so it cannot pass by always rebuilding.
func TestLiveTableMatchesFreshBuild(t *testing.T) {
	for _, leg := range liveTableLegs {
		for _, workers := range leg.workers {
			// The churn leg runs at two worker counts and is named by
			// them, the other legs by their names.
			name := leg.name
			if leg.name == "churn" {
				name = fmt.Sprintf("workers=%d", workers)
			}
			t.Run(name, func(t *testing.T) {
				src := rng.New(9)
				unreachable, queries, grew, compactions := 0, 0, 0, 0
				var last routing.Work
				liveTableTrace(t, leg.name, workers, leg.steps, func(step int, net *Network, live *routing.Hierarchical, slots int) {
					w := live.Work()
					if net.N() > slots {
						grew++
					}
					if net.N() < slots {
						compactions++
						if w.Builds == last.Builds {
							t.Fatalf("step %d: Compact renumbered the slots and the table was repaired, not rebuilt", step)
						}
					}
					last = w
					fresh := new(routing.Hierarchical)
					if err := fresh.Reset(net.grid.Graph(), net.renderAssignment(new(cluster.Assignment))); err != nil {
						t.Fatal(err)
					}
					if lg, fg := live.Gateways(), fresh.Gateways(); !slices.Equal(lg, fg) {
						i := 0
						for i < len(lg) && i < len(fg) && lg[i] == fg[i] {
							i++
						}
						t.Fatalf("step %d: the gateways part at entry %d: live %+v, fresh build %+v",
							step, i, lg[i:min(i+1, len(lg))], fg[i:min(i+1, len(fg))])
					}
					for u := 0; u < net.N(); u++ {
						for v := 0; v < net.N(); v++ {
							next, err := live.NextHop(u, v)
							wantNext, wantErr := fresh.NextHop(u, v)
							if next != wantNext || !errors.Is(err, wantErr) {
								t.Fatalf("step %d: NextHop(%d,%d) = (%d, %v), fresh build says (%d, %v)", step, u, v, next, err, wantNext, wantErr)
							}
							if err != nil {
								unreachable++
							}
							queries++
						}
					}
					for q := 0; q < 60; q++ {
						u, v := src.Intn(net.N()), src.Intn(net.N())
						path, err := live.Route(u, v)
						wantPath, wantErr := fresh.Route(u, v)
						if !slices.Equal(path, wantPath) || !errors.Is(err, wantErr) {
							t.Fatalf("step %d: Route(%d,%d) = (%v, %v), fresh build says (%v, %v)", step, u, v, path, err, wantPath, wantErr)
						}
					}
				})
				// The comparison means something only if the table was
				// repaired over and over and kept trees while it was and
				// some pair routed, and if the churned trace also brought
				// the table up to date at least 100 times, grew and
				// compacted the slots, and saw unreachable pairs.
				w := last
				if w.Repairs < leg.steps/2 || w.TreesKept == 0 || unreachable == queries ||
					(leg.name == "churn" && (w.Builds+w.Repairs < 100 || grew == 0 || compactions == 0 || unreachable == 0)) {
					t.Fatalf("weak trace: %+v, slots grew %d times, %d compactions, %d unreachable of %d queries",
						w, grew, compactions, unreachable, queries)
				}
				switch {
				case leg.name == "rotation" && w.ComponentNodesVisited != 0:
					t.Fatalf("topology fixed, yet the component repair visited %d nodes", w.ComponentNodesVisited)
				case leg.name != "rotation" && w.ComponentNodesVisited == 0:
					t.Fatalf("edges moved, yet the component repair never ran: %+v", w)
				}
			})
		}
	}
}

// TestComponentLabelsMatchGraph is the oracle of the maintained component
// labels: after every step of every live-table leg (churn with Compact,
// faults, rotation, mobility) the table's labels split the slots exactly
// as topology.Graph.Components does, up to renaming.
func TestComponentLabelsMatchGraph(t *testing.T) {
	for _, leg := range liveTableLegs {
		t.Run(leg.name, func(t *testing.T) {
			liveTableTrace(t, leg.name, 1, leg.steps, func(step int, net *Network, live *routing.Hierarchical, _ int) {
				want, _ := net.grid.Graph().Components()
				toLive, toWant := map[int]int{}, map[int]int{}
				for u, c := range want {
					l := live.Component(u)
					if w, ok := toLive[l]; ok && w != c {
						t.Fatalf("step %d: node %d has label %d, which also labels component %d; the graph puts it in %d", step, u, l, w, c)
					}
					if m, ok := toWant[c]; ok && m != l {
						t.Fatalf("step %d: component %d carries labels %d and %d (node %d)", step, c, m, l, u)
					}
					toLive[l], toWant[c] = c, l
				}
			})
		})
	}
}
