package runtime

import (
	"fmt"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/obs"
	"selfstab/internal/radio"
	"selfstab/internal/topology"
)

// TestCachedLinkCountMatchesRecount is the invalidation property of the
// cached R1 link count: after every operation of a mixed trace —
// mobility, churn, sleep/wake, corruption, TTL eviction, density
// rescaling, byzantine eviction, slot compaction — every alive node that
// holds a cached count holds the one a from-scratch recount gives. At one
// and four workers; run it under -race as well.
func TestCachedLinkCountMatchesRecount(t *testing.T) {
	protos := map[string]Protocol{
		"basic-ttl4": {Order: cluster.OrderBasic, CacheTTL: 4},
		"dag-fusion": {Order: cluster.OrderSticky, CacheTTL: 3, UseDag: true, Gamma: 1 << 14, Fusion: true},
	}
	for name, proto := range protos {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				const n, r = 120, 0.14
				const seed = 5000
				trace := buildTraceKinds(t, seed, n, r, proto, 80, 10)
				tw := newTwin(t, seed, n, r, proto, true, workers)
				checked := 0
				for k, op := range trace {
					// Step one at a time so every intermediate
					// configuration is checked, not only the last.
					reps := 1
					if op.kind == "step" {
						reps, op.steps = op.steps, 1
					}
					for ; reps > 0; reps-- {
						tw.apply(t, op)
						for i, nd := range tw.e.nodes {
							if tw.e.status[i] != StatusAlive || !nd.linksOK {
								continue
							}
							checked++
							if want := nd.countLinks(); nd.links != want {
								t.Fatalf("op %d (%s): node %d caches %d links, recount %d", k, op.kind, i, nd.links, want)
							}
						}
					}
				}
				if checked == 0 {
					t.Fatal("no node ever held a cached link count")
				}
			})
		}
	}
}

// TestDensityChangeWakesOneHop pins the locality the publish rule buys.
// On a line, node 10 (largest id, so nobody's parent or head) has its
// density rescaled. Its neighbors 9 and 11 must re-run their guards, but
// without fusion nothing THEY publish mentions node 10's density, so no
// step's worklist reaches past {9, 10, 11}. With fusion the relayed
// values do change, and the 2-hop neighborhood {8, …, 12} wakes to read
// them.
func TestDensityChangeWakesOneHop(t *testing.T) {
	const n, mid = 21, 10
	for _, fusion := range []bool{false, true} {
		t.Run(fmt.Sprintf("fusion=%v", fusion), func(t *testing.T) {
			g := topology.New(n)
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i)
				if i > 0 {
					if err := g.AddEdge(i-1, i); err != nil {
						t.Fatal(err)
					}
				}
			}
			ids[mid] = 1000
			e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic, Fusion: fusion}, radio.Perfect{}, 31)
			if _, err := e.RunUntilStable(1000, 5); err != nil {
				t.Fatal(err)
			}
			before := e.Snapshot()
			c := obs.NewCollector(16)
			e.SetProbe(c)
			if err := e.SetDensityScale(mid, 0.5); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(6); err != nil {
				t.Fatal(err)
			}
			after := e.Snapshot()
			for i := range after.IDs {
				moved := after.Density[i] != before.Density[i]
				if moved != (i == mid) || after.HeadID[i] != before.HeadID[i] || after.Parent[i] != before.Parent[i] {
					t.Fatalf("node %d: the rescale was meant to move node %d's density and nothing else", i, mid)
				}
			}
			widest := int64(0)
			for _, rec := range c.Recent(0) {
				widest = max(widest, rec.Counters[obs.CtrExec])
			}
			want := int64(3) // the closed 1-hop neighborhood
			if fusion {
				want = 5 // the closed 2-hop neighborhood
			}
			if widest != want {
				t.Fatalf("widest worklist after a density change: %d nodes, want %d", widest, want)
			}
			if got := e.FrontierLen(); got != 0 {
				t.Fatalf("%d nodes still pending", got)
			}
		})
	}
}
