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

var countLinksSink int

// BenchmarkCountLinks is guard R1's Definition-1 recount alone: one op is
// one node counting the links of its cached neighborhood, at mean degree
// 10 and 31, over worlds large enough that a node's cached lists are not
// in cache when the count reaches them — the state a recount runs in,
// since a recount follows a relist.
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
