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

// TestLiveTableMatchesFreshBuild is the root half of the table oracle.
// internal/routing's TestHierarchicalMatchesReference shows that a table
// answers as the eager reference builder does; this test shows that the
// one table the Network resets in place — from reused assignment buffers,
// keeping component labels across engine epochs and dropping them when
// the graph's version moves — is at every step boundary the table a fresh
// build from the same graph and assignment would be. The trace moves every epoch
// there is: churn (arrivals grow the buffers, auto-compaction renumbers
// them), traffic, energy rotation and depletion, faults and mobility.
func TestLiveTableMatchesFreshBuild(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net := churnNet(t, 160, 1606)
			net.SetParallelism(workers)
			if err := net.AttachTraffic(TrafficConfig{QueueCap: 8, Flows: mixedWorkload(net, 12)}); err != nil {
				t.Fatal(err)
			}
			if err := net.AttachEnergy(EnergyConfig{Capacity: 4, Rotation: true}); err != nil {
				t.Fatal(err)
			}
			if err := net.AttachChurn(ChurnConfig{
				ArrivalRate: 0.5, DepartureRate: 0.3, CrashRate: 0.2, SleepRate: 0.3, SleepSteps: 6,
			}); err != nil {
				t.Fatal(err)
			}
			if err := net.SetAutoCompact(0.05); err != nil {
				t.Fatal(err)
			}
			src := rng.New(9)
			resets, unreachable, grew, shrank := 0, 0, 0, 0
			for step := 0; step < 140; step++ {
				switch step {
				case 40, 95:
					net.InjectFaults(0.3) // scrambled heads and parents
				case 70:
					pos := net.Positions()
					for i := range pos {
						pos[i].X = clamp01(pos[i].X + 0.03)
					}
					if err := net.SetPositions(pos); err != nil {
						t.Fatal(err)
					}
				}
				before, slots := net.routeTabEpoch, net.N()
				if err := net.Step(); err != nil {
					t.Fatal(err)
				}
				if net.N() > slots {
					grew++
				} else if net.N() < slots {
					shrank++
				}
				live, err := net.hierTable()
				if err != nil {
					t.Fatal(err)
				}
				if net.routeTabEpoch != before {
					resets++
				}
				fresh := new(routing.Hierarchical)
				if err := fresh.Reset(net.grid.Graph(), net.renderAssignment(new(cluster.Assignment))); err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 60; q++ {
					u, v := src.Intn(net.N()), src.Intn(net.N())
					next, err := live.NextHop(u, v)
					wantNext, wantErr := fresh.NextHop(u, v)
					if next != wantNext || !errors.Is(err, wantErr) {
						t.Fatalf("step %d: NextHop(%d,%d) = (%d, %v), fresh build says (%d, %v)", step, u, v, next, err, wantNext, wantErr)
					}
					path, err := live.Route(u, v)
					wantPath, wantErr := fresh.Route(u, v)
					if !slices.Equal(path, wantPath) || !errors.Is(err, wantErr) {
						t.Fatalf("step %d: Route(%d,%d) = (%v, %v), fresh build says (%v, %v)", step, u, v, path, err, wantPath, wantErr)
					}
					if err != nil {
						unreachable++
					}
				}
			}
			// The comparison means something only if the table was reset
			// over and over, its buffers were regrown and renumbered, and
			// both outcomes were seen.
			if resets < 100 || grew == 0 || shrank == 0 || unreachable == 0 || unreachable == 140*60 {
				t.Fatalf("weak trace: %d resets, slots grew %d times and shrank %d, %d unreachable of %d queries",
					resets, grew, shrank, unreachable, 140*60)
			}
		})
	}
}
