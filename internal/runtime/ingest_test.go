package runtime

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"selfstab/internal/cluster"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
)

// TestCacheEntrySize: the heard stamp and the position hint share the one
// word the age counter used to occupy. A 50k-node world holds about half a
// million entries; a ninth word on each is 4 MB of resident set.
func TestCacheEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(cacheEntry{}); got != 48 {
		t.Fatalf("cacheEntry is %d bytes, want 48", got)
	}
}

// TestNodeSize: the parking fields live in what was tail padding. A
// 128-byte Node read 1.9 % more churn peak RSS and slowed a workload
// whose engine is idle (dataplane).
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 96 {
		t.Fatalf("Node is %d bytes, want 96", got)
	}
}

// TestSpuriousRelistChangesNothing pins the one behavioural difference of
// deciding "relisted" by list identity instead of by content: a cached
// list that is equal to the sender's by value but is a different
// allocation makes the node re-derive its link count (a zero delta, or —
// as here, where every cached list is swapped — one recount) and re-run
// its guards once, and nothing observable moves — no shared variable, not
// the quiescence marker, not a draw from the node's rng stream.
func TestSpuriousRelistChangesNothing(t *testing.T) {
	proto := Protocol{Order: cluster.OrderSticky, UseDag: true, Gamma: 1 << 14, CacheTTL: 3}
	build := func() *Engine {
		g, ids := randomNetwork(77, 80, 0.18)
		e := mustEngine(t, g, ids, proto, radio.Perfect{}, 77)
		if _, err := e.RunUntilStable(2000, 5); err != nil {
			t.Fatal(err)
		}
		return e
	}
	swapped, control := build(), build()
	relists := 0
	for i, n := range swapped.nodes {
		for j := range n.cache {
			if l := n.cache[j].frame.Nbrs; len(l.ids()) > 0 {
				n.cache[j].frame.Nbrs = &NbrList{IDs: slices.Clone(l.IDs)}
				relists++
			}
		}
		swapped.Activate(i)
		control.Activate(i)
	}
	if relists == 0 {
		t.Fatal("no cached list to swap")
	}
	for _, e := range []*Engine{swapped, control} {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(swapped.Snapshot(), control.Snapshot()) {
		t.Fatal("an equal-content relist moved a shared variable")
	}
	if got, want := swapped.LastChange(), control.LastChange(); got != want {
		t.Fatalf("an equal-content relist moved LastChange to %d, want %d", got, want)
	}
	for i, n := range swapped.nodes {
		for j := range n.cache {
			if f := &n.cache[j].frame; f.Nbrs != swapped.out[swapped.idx[f.ID]].Nbrs {
				t.Fatalf("node %d entry %d does not hold its sender's live list", i, j)
			}
		}
		if !n.linksOK || n.links != control.nodes[i].links {
			t.Fatalf("node %d counts %d links (valid %v), want %d", i, n.links, n.linksOK, control.nodes[i].links)
		}
		if got, want := n.src.Int63(), control.nodes[i].src.Int63(); got != want {
			t.Fatalf("node %d: an equal-content relist consumed the node's rng stream", i)
		}
	}
}

// TestGuardOnlyChangeRepublishesHeaderOnly pins who rebuilds the relayed
// list. A planted list with the wrong content stands in for the published
// one: the frame phase replaces it exactly when it compares the list
// against the cache. A node whose own guards moved its density republishes
// the header and leaves the plant alone; every outside mutator, a cold
// restart and a change of the cache's key set still go through the list.
func TestGuardOnlyChangeRepublishesHeaderOnly(t *testing.T) {
	const i = 7
	build := func() (*Engine, *NbrList) {
		g, ids := randomNetwork(78, 80, 0.18)
		e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic, CacheTTL: 2}, radio.Perfect{}, 78)
		if _, err := e.RunUntilStable(2000, 5); err != nil {
			t.Fatal(err)
		}
		if len(g.Neighbors(i)) == 0 {
			t.Fatal("node under test is isolated")
		}
		return e, &NbrList{IDs: []int64{-7}}
	}

	e, plant := build()
	if err := e.SetDensityScale(i, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil { // R1 applies the scale: the node's own guards move its density
		t.Fatal(err)
	}
	n := e.nodes[i]
	if !n.headerDirty || n.frameDirty {
		t.Fatalf("after a guard-only change: headerDirty %v, frameDirty %v", n.headerDirty, n.frameDirty)
	}
	if e.out[i].Density == n.density {
		t.Fatal("the new density was published before the frame phase ran")
	}
	e.out[i].Nbrs = plant
	want := n.density
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if e.out[i].Nbrs != plant {
		t.Fatal("a guard-only republish touched the relayed list")
	}
	if e.out[i].Density != want {
		t.Fatalf("a guard-only republish left density %v in the frame, want %v", e.out[i].Density, want)
	}

	rebuilds := map[string]struct {
		mutate func(e *Engine) error
		steps  int
	}{
		"Corrupt":         {func(e *Engine) error { e.Corrupt(1, CorruptAll, rng.New(5)); return nil }, 1},
		"SetDensityScale": {func(e *Engine) error { return e.SetDensityScale(i, 0.25) }, 1},
		"Wake": {func(e *Engine) error {
			if err := e.Sleep(i, 0); err != nil {
				return err
			}
			return e.Wake(i)
		}, 1},
		"reset": {func(e *Engine) error { return e.Reboot(i) }, 1},
		// A silenced neighbor is evicted once its entry outlives the TTL;
		// the step after that republishes the shorter list.
		"key set": {func(e *Engine) error { return e.Kill(e.g.Neighbors(i)[0]) }, 4},
	}
	for name, c := range rebuilds {
		t.Run(name, func(t *testing.T) {
			e, plant := build()
			e.out[i].Nbrs = plant
			if err := c.mutate(e); err != nil {
				t.Fatal(err)
			}
			if err := runSteps(e, c.steps); err != nil {
				t.Fatal(err)
			}
			if e.out[i].Nbrs == plant {
				t.Fatal("the frame phase never compared the relayed list against the cache")
			}
		})
	}
}

// TestCorruptPrivatizesIntoDisjointSlabs: the private lists Corrupt leaves
// in a node's cache are carved from one slab per node, and must behave as
// the per-entry clones they replaced did: none overlaps another, none
// aliases a list some sender published, and growing one cannot write into
// the next.
func TestCorruptPrivatizesIntoDisjointSlabs(t *testing.T) {
	for _, fusion := range []bool{false, true} {
		g, ids := randomNetwork(79, 60, 0.2)
		e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic, Fusion: fusion}, radio.Perfect{}, 79)
		if _, err := e.RunUntilStable(2000, 5); err != nil {
			t.Fatal(err)
		}
		published := make(map[*int64]bool)
		for i := range e.out {
			l := e.out[i].Nbrs.ids()
			for k := range l {
				published[&l[k]] = true
			}
		}
		e.Corrupt(1, CorruptCache, rng.New(6))
		lists := 0
		for i, n := range e.nodes {
			// Which cache entry owns each word of private storage.
			idOwner, valOwner := make(map[*int64]int), make(map[*NbrValue]int)
			for j := range n.cache {
				l := n.cache[j].frame.Nbrs
				if len(l.ids()) == 0 {
					continue
				}
				lists++
				if fusion != (len(l.Vals) == len(l.IDs)) {
					t.Fatalf("fusion=%v: node %d entry %d has %d values for %d identifiers", fusion, i, j, len(l.Vals), len(l.IDs))
				}
				for k := range l.IDs {
					if published[&l.IDs[k]] {
						t.Fatalf("node %d entry %d aliases a published list", i, j)
					}
					if prev, dup := idOwner[&l.IDs[k]]; dup {
						t.Fatalf("node %d: entries %d and %d share identifier storage", i, prev, j)
					}
					idOwner[&l.IDs[k]] = j
				}
				for k := range l.Vals {
					if prev, dup := valOwner[&l.Vals[k]]; dup {
						t.Fatalf("node %d: entries %d and %d share value storage", i, prev, j)
					}
					valOwner[&l.Vals[k]] = j
				}
			}
			for j := range n.cache {
				l := n.cache[j].frame.Nbrs
				if len(l.ids()) == 0 {
					continue
				}
				grownIDs, grownVals := append(l.IDs, -1), append(l.Vals, NbrValue{})
				if prev, hit := idOwner[&grownIDs[len(l.IDs)]]; hit {
					t.Fatalf("node %d: append on entry %d wrote into entry %d's identifiers", i, j, prev)
				}
				if prev, hit := valOwner[&grownVals[len(l.Vals)]]; hit {
					t.Fatalf("node %d: append on entry %d wrote into entry %d's values", i, j, prev)
				}
			}
		}
		if lists == 0 {
			t.Fatal("Corrupt privatized nothing")
		}
	}
}
