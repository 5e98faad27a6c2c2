package runtime

import (
	"fmt"
	"slices"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/obs"
	"selfstab/internal/radio"
	"selfstab/internal/topology"
)

// TestCachedLinkCountMatchesRecount is the exactness property of the R1
// link count ingest keeps: after every operation of a mixed trace —
// mobility, churn, sleep/wake, corruption, TTL eviction, density
// rescaling, byzantine eviction, slot compaction — every alive node that
// holds a count holds the one a from-scratch recount gives. At one and
// four workers; run it under -race as well.
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

// TestLinkCountCutOver pins ingest's one cost rule. Every delta is exact,
// so the oracles above cannot tell a delta from a recount; this test can:
// relist deltas are applied while fewer than half the cached neighbors
// relisted in the row, and past that — or when a neighbor joins behind a
// pending relist, or a row fills an empty cache — the count is dropped
// for R1 to recount.
func TestLinkCountCutOver(t *testing.T) {
	frames := make([]Frame, 6)
	for k := range frames {
		frames[k].ID = int64(10 * (k + 1))
	}
	for k := range frames { // every sender lists every other: a clique
		var ids []int64
		for i := range frames {
			if i != k {
				ids = append(ids, frames[i].ID)
			}
		}
		frames[k].Nbrs = &NbrList{IDs: ids}
	}
	relist := func(k int) { // the sender loses its first neighbor
		frames[k].Nbrs = &NbrList{IDs: slices.Clone(frames[k].Nbrs.IDs[1:])}
	}
	n := &Node{id: 1, linksOK: true}
	step := func(name string, row []int, keep bool) {
		t.Helper()
		ingest(n, frames, row, nil, Protocol{})
		if n.linksOK != keep {
			t.Fatalf("%s: count kept = %v, want %v", name, n.linksOK, keep)
		}
		if n.linksOK && n.links != n.countLinks() {
			t.Fatalf("%s: %d links kept, recount %d", name, n.links, n.countLinks())
		}
		n.links, n.linksOK = n.countLinks(), true // R1
	}
	step("joins into an empty cache", []int{0, 1, 2}, false)
	step("a join", []int{0, 1, 2, 3}, true)
	relist(1)
	step("one of four relists", []int{0, 1, 2, 3}, true)
	relist(1)
	relist(2)
	step("two of four relist", []int{0, 1, 2, 3}, false)
	relist(3)
	step("a join behind a relist", []int{0, 3, 4}, false)
	relist(0)
	step("a join ahead of a relist", []int{5, 0, 1, 2, 3, 4}, true)
}

// FuzzLinkCount holds ingest's kept link count to a recount over
// generated single-node histories. Each input decodes to a sequence of
// operations over 20 senders whose lists name ids from a universe of 24
// (the 20 senders, the node itself among them, and 4 strangers): a
// sender relists — sorted, or in the order the bytes give, duplicates
// included, as Corrupt leaves lists — or republishes an equal list at a
// new address, or every sender relists at once; a sender leaves the row
// or returns; a cached list is scribbled on (clearing the count, as
// Corrupt does); R1 recounts a dropped count; and the node ingests its
// row, whole or under a send mask, so entries appear, age past the TTL
// (0 to 3, from the first byte, with fusion on its next bit) and leave.
// The property: whenever the node holds a count, it is the recount's.
// Run it with go test -run '^$' -fuzz FuzzLinkCount ./internal/runtime;
// testdata/fuzz/FuzzLinkCount holds the seed corpus plain go test runs.
func FuzzLinkCount(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runLinkCountHistory(t, data)
	})
}

func runLinkCountHistory(t *testing.T, data []byte) {
	const senders, universe = 20, 24
	idOf := func(k int) int64 { return int64(3*(k*7%universe) + 2) } // a permutation: row order is not id order
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	head := next()
	proto := Protocol{CacheTTL: head & 3, Fusion: head&4 != 0}
	frames := make([]Frame, senders)
	for k := range frames {
		frames[k] = Frame{ID: idOf(k), Nbrs: &NbrList{}}
	}
	n := &Node{id: idOf(0), linksOK: true} // slot 0 is the node's own echo
	inRow := make([]bool, senders)
	for k := range inRow {
		inRow[k] = true
	}
	sending := make([]bool, senders)
	row := make([]int, senders)
	for k := range row {
		row[k] = k
	}
	relist := func(k int, ids []int64) { frames[k].Nbrs = &NbrList{IDs: ids} }
	for step := 0; len(data) > 0; step++ {
		switch op := next(); op % 8 {
		case 0, 1: // ingest, the whole row or under a mask
			mask := 0xff
			if op%8 == 1 {
				mask = next()
			}
			for k := range sending {
				sending[k] = inRow[k] && mask>>(k%8)&1 != 0
			}
			ingest(n, frames, row, sending, proto)
			if n.linksOK {
				if want := n.countLinks(); n.links != want {
					t.Fatalf("op %d: %d links kept over %d entries, recount %d", step, n.links, len(n.cache), want)
				}
			}
		case 2: // one sender relists
			k := next() % senders
			spec := next()
			ids := make([]int64, spec%10)
			for i := range ids {
				ids[i] = idOf(next() % universe)
			}
			if spec < 128 {
				slices.Sort(ids)
			}
			relist(k, ids)
		case 3: // a sender leaves the row for good, or returns
			k := next() % senders
			inRow[k] = !inRow[k]
		case 4: // Corrupt's scribble on one cached list
			if len(n.cache) == 0 {
				continue
			}
			e := &n.cache[next()%len(n.cache)]
			ids := slices.Clone(e.frame.Nbrs.ids())
			if len(ids) > 0 {
				ids[next()%len(ids)] = idOf(next() % universe)
			}
			e.frame.Nbrs = &NbrList{IDs: ids}
			n.linksOK = false
		case 5: // R1 runs
			if !n.linksOK {
				n.links, n.linksOK = n.countLinks(), true
			}
		case 6: // every sender relists, swapping one id
			swap := idOf(next() % universe)
			for k := range frames {
				ids := slices.Clone(frames[k].Nbrs.ids())
				if len(ids) == 0 {
					ids = append(ids, swap)
				} else {
					ids[k%len(ids)] = swap
				}
				slices.Sort(ids)
				relist(k, ids)
			}
		case 7: // an equal list at a new address
			k := next() % senders
			relist(k, slices.Clone(frames[k].Nbrs.ids()))
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
			if err := runSteps(e, 6); err != nil {
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
			if got := len(e.pend); got != 0 {
				t.Fatalf("%d nodes still pending", got)
			}
		})
	}
}
