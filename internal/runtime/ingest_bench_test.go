package runtime

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// degreeEngine is a stabilized n-node world at the given mean degree,
// cache TTL 8 as the end-to-end workloads run it. The layer benchmarks
// below walk its nodes in slot order, as a saturated step does, so a row
// includes the memory behaviour of a world that does not fit in cache.
func degreeEngine(b *testing.B, n, deg int) *Engine {
	b.Helper()
	pts, ids, _ := scalePoints(int64(n), n)
	g := topology.FromPoints(pts, math.Sqrt(float64(deg)/(math.Pi*float64(n))))
	e, err := New(g, ids, Protocol{Order: cluster.OrderBasic, CacheTTL: 8}, radio.Perfect{}, rng.New(int64(n)))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunUntilStable(5000, 5); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkIngest is the ingest layer alone: one op is one node ingesting
// its whole delivery row, at mean degree 10 (the end-to-end workloads) and
// 31 (BenchmarkChurnStep1000). heard=same is the quiescent refresh — every
// sender's frame is the one already cached; heard=scalars moves every
// sender's density (a recovery's steps 1..k); heard=lists hands every
// sender a new list pointer (the step after a full corruption). None of
// the three may allocate.
func BenchmarkIngest(b *testing.B) {
	const n = 20_000
	for _, deg := range []int{10, 31} {
		e := degreeEngine(b, n, deg)
		// Two frame arenas to alternate between: whatever a row names, the
		// node cached the other arena's version of it one pass earlier.
		arenas := map[string][2][]Frame{}
		for _, heard := range []string{"same", "scalars", "lists"} {
			other := slices.Clone(e.out)
			for i := range other {
				switch heard {
				case "scalars":
					other[i].Density++
				case "lists":
					if l := other[i].Nbrs; l != nil {
						other[i].Nbrs = &NbrList{IDs: l.IDs}
					}
				}
			}
			arenas[heard] = [2][]Frame{e.out, other}
		}
		for _, heard := range []string{"same", "scalars", "lists"} {
			b.Run(fmt.Sprintf("deg=%d/heard=%s", deg, heard), func(b *testing.B) {
				pass := func(k int) {
					frames := arenas[heard][(k/n)&1]
					ingest(e.nodes[k%n], frames, e.g.Neighbors(k%n), e.sendMask, e.proto)
				}
				for k := 0; k < 2*n; k++ {
					pass(k) // leave every cache as the timed loop's first pass expects it
				}
				b.ReportAllocs()
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					pass(k)
				}
			})
		}
	}
}

// BenchmarkLinkUpkeep is what keeping guard R1's link count costs when
// lists move: one op is one node of a stabilized world ingesting its row,
// in which one sender (relists=1: churn, where a node's neighborhood
// changed and its neighbors relist) or every sender (relists=all: the
// step after a full corruption or a cold start) republished its list
// with one identifier swapped for a 2-hop neighbor's, and then guard R1.
// relists=1 is the delta path; relists=all crosses ingest's cut-over and
// is a recount, as every relist was before ingest kept the count.
func BenchmarkLinkUpkeep(b *testing.B) {
	const n = 20_000
	for _, deg := range []int{10, 31} {
		e := degreeEngine(b, n, deg)
		// lists[0] holds each sender's list with one id swapped, lists[1]
		// the list it publishes; an op shows its row the other version of
		// whatever the node cached one pass earlier.
		lists := [2][]*NbrList{make([]*NbrList, n), make([]*NbrList, n)}
		for i := range e.out {
			l := e.out[i].Nbrs
			lists[1][i] = l
			ids := slices.Clone(l.ids())
			if len(ids) > 0 {
				ids[len(ids)/2] = twoHopStranger(e, i, l.ids())
				slices.Sort(ids)
			}
			lists[0][i] = &NbrList{IDs: ids}
		}
		for _, relists := range []string{"1", "all"} {
			b.Run(fmt.Sprintf("deg=%d/relists=%s", deg, relists), func(b *testing.B) {
				frames := slices.Clone(e.out)
				pass := func(k int) {
					i, shown := k%n, lists[(k/n)&1]
					row := e.g.Neighbors(i)
					switch {
					case relists == "all":
						for _, s := range row {
							frames[s].Nbrs = shown[s]
						}
					case len(row) > 0:
						frames[row[0]].Nbrs = shown[row[0]]
					}
					nd := e.nodes[i]
					ingest(nd, frames, row, e.sendMask, e.proto)
					nd.guardR1(1)
					for _, s := range row {
						frames[s].Nbrs = lists[1][s] // every other row sees what it cached
					}
				}
				for k := 0; k < 2*n; k++ {
					pass(k) // leave every cache as the timed loop's first pass expects it
				}
				b.ReportAllocs()
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					pass(k)
				}
			})
		}
	}
}

// twoHopStranger returns the identifier of a node two hops from node i
// that i's list does not hold, or i's own first listed id if none.
func twoHopStranger(e *Engine, i int, listed []int64) int64 {
	for _, w := range e.g.Neighbors(i) {
		for _, u := range e.g.Neighbors(w) {
			if u != i && !slices.Contains(listed, e.ids[u]) {
				return e.ids[u]
			}
		}
	}
	return listed[0]
}

var countLinksSink int

// BenchmarkCountLinks is guard R1's Definition-1 recount alone: one op is
// one node counting the links of its cached neighborhood, at mean degree
// 10 and 31, over worlds large enough that a node's cached lists are not
// in cache when the count reaches them — the state a recount runs in,
// since it runs after most of a cache relisted.
func BenchmarkCountLinks(b *testing.B) {
	for _, c := range []struct{ n, deg int }{{50_000, 10}, {20_000, 31}} {
		e := degreeEngine(b, c.n, c.deg)
		b.Run(fmt.Sprintf("deg=%d", c.deg), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				countLinksSink += e.nodes[k%c.n].countLinks()
			}
		})
	}
}
