package runtime

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
)

// TestDagRecoveryDrawSequencePinned pins guard N1's per-node rng
// consumption through repeated full-corruption recoveries in a crowded
// color space (gamma barely above the maximum degree, so redraws collide
// and retry). The digest folds every node's final color AND the next
// value of its private stream, so an N1 that reached the same colors by
// drawing a different number of values still fails. The constant was
// recorded with the map-based occupancy check the scan replaced.
func TestDagRecoveryDrawSequencePinned(t *testing.T) {
	g, ids := randomNetwork(21, 200, 0.12)
	proto := Protocol{Order: cluster.OrderBasic, UseDag: true, Gamma: int64(g.MaxDegree() + 2)}
	e := mustEngine(t, g, ids, proto, radio.Perfect{}, 2100)
	faults := rng.New(2101)
	h := fnv.New64a()
	fold := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for round := 0; round < 3; round++ {
		e.Corrupt(1.0, CorruptAll, faults)
		steps, err := e.RunUntilStable(5000, 5)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fold(int64(steps))
	}
	if !e.DagLocallyUnique() {
		t.Fatal("recovered colors are not locally unique")
	}
	for _, n := range e.nodes {
		fold(n.tieID)
		fold(n.src.Int63())
	}
	const want uint64 = 0xe92db54a6fc808b0
	if got := h.Sum64(); got != want {
		t.Fatalf("DAG recovery digest %#x, want %#x", got, want)
	}
}

// TestGuardN1RedrawAllocatesNothing: the collision path of N1 scans the
// cache for occupied colors instead of building a set.
func TestGuardN1RedrawAllocatesNothing(t *testing.T) {
	proto := Protocol{Order: cluster.OrderBasic, UseDag: true, Gamma: 16}
	n := newNode(1, proto, rng.New(7))
	for id := int64(2); id < 12; id++ {
		n.cache.put(cacheEntry{frame: Frame{ID: id, TieID: id}})
	}
	allocs := testing.AllocsPerRun(100, func() {
		n.tieID = 5 // collides with neighbor 5, which has the greater id: this node redraws
		if !n.guardN1(proto) {
			t.Fatal("colliding color survived N1")
		}
	})
	if allocs != 0 {
		t.Fatalf("N1 redraw allocates %v times per run", allocs)
	}
}

// TestGuardsAllocateNothing: the three guards allocate nothing on the
// warm nodes of a stabilized world, on paths a quiescent step never runs:
// R1 recounting its links (linksOK cleared), R2 under the basic order and
// under sticky+fusion, and N1 on a DAG node whose color collides with no
// neighbor's.
func TestGuardsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto Protocol
	}{
		{"plain", Protocol{Order: cluster.OrderBasic}},
		{"fusion", Protocol{Order: cluster.OrderSticky, Fusion: true}},
		{"dag", Protocol{Order: cluster.OrderBasic, UseDag: true, Gamma: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ids := randomNetwork(2, 400, 0.1)
			e, err := New(g, ids, tc.proto, radio.Perfect{}, rng.New(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunUntilStable(5000, 5); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				for _, n := range e.nodes {
					n.linksOK = false
					if n.guardN1(tc.proto) || n.guardR1(1) || n.guardR2(tc.proto) {
						t.Fatal("a guard fired on a stabilized node")
					}
					if !n.linksOK {
						t.Fatal("R1 did not recount")
					}
				}
			})
			if allocs != 0 {
				t.Errorf("the guards allocate %v times per pass over %d nodes", allocs, len(e.nodes))
			}
		})
	}
}
