package topology

import (
	"testing"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
	"selfstab/internal/slot"
)

// graphsEqual compares full sorted adjacency.
func graphsEqual(t *testing.T, got, want *Graph, ctx string) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: %d nodes, want %d", ctx, got.N(), want.N())
	}
	for u := 0; u < want.N(); u++ {
		g, w := got.Neighbors(u), want.Neighbors(u)
		if len(g) != len(w) {
			t.Fatalf("%s: node %d has %d neighbors, want %d (%v vs %v)", ctx, u, len(g), len(w), g, w)
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("%s: node %d adjacency %v, want %v", ctx, u, g, w)
			}
		}
	}
}

func randPoints(n int, src *rng.Source) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
	}
	return pts
}

// TestGridIndexMatchesFromPoints: construction parity on random instances.
func TestGridIndexMatchesFromPoints(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		src := rng.New(seed)
		pts := randPoints(200, src)
		idx := NewGridIndex(pts, 0.12)
		graphsEqual(t, idx.Graph(), FromPoints(pts, 0.12), "construction")
	}
}

// TestGridIndexIncrementalMatchesRebuild is the property test for the
// incremental maintenance: after arbitrary random moves — small jitters,
// teleports across the region, points wandering outside the original
// bounding box, and no-op updates — Update must produce exactly the
// adjacency a fresh FromPoints rebuild produces.
func TestGridIndexIncrementalMatchesRebuild(t *testing.T) {
	const n = 150
	const r = 0.15
	for seed := int64(0); seed < 3; seed++ {
		src := rng.New(100 + seed)
		pts := randPoints(n, src)
		idx := NewGridIndex(pts, r)
		for iter := 0; iter < 25; iter++ {
			// Move a random subset: 0 nodes (no-op), a few, or everyone.
			frac := []float64{0, 0.05, 0.3, 1}[iter%4]
			for i := range pts {
				if src.Float64() >= frac {
					continue
				}
				switch src.Intn(3) {
				case 0: // jitter in place (cell rarely changes)
					pts[i].X += (src.Float64() - 0.5) * 0.02
					pts[i].Y += (src.Float64() - 0.5) * 0.02
				case 1: // teleport across the region
					pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
				case 2: // escape the original bounding box
					pts[i] = geom.Point{X: src.Float64()*3 - 1, Y: src.Float64()*3 - 1}
				}
			}
			if err := idx.Update(pts); err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, idx.Graph(), FromPoints(pts, r), "after update")
		}
	}
}

// TestGridIndexInRegionHotspotDispersal: anchoring on the region keeps
// incremental updates exact (and the cells meaningful) when a clustered
// deployment later spreads across the whole region.
func TestGridIndexInRegionHotspotDispersal(t *testing.T) {
	src := rng.New(42)
	const r = 0.1
	// Everyone starts inside a 0.05-wide hotspot.
	pts := make([]geom.Point, 120)
	for i := range pts {
		pts[i] = geom.Point{X: 0.4 + src.Float64()*0.05, Y: 0.4 + src.Float64()*0.05}
	}
	idx := NewGridIndexInRegion(pts, r, geom.UnitSquare())
	graphsEqual(t, idx.Graph(), FromPoints(pts, r), "hotspot construction")
	// Disperse across the full unit square and keep moving.
	for iter := 0; iter < 10; iter++ {
		for i := range pts {
			pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
		}
		if err := idx.Update(pts); err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, idx.Graph(), FromPoints(pts, r), "after dispersal")
	}
}

// TestGridIndexUpdateValidation: a wrong-length position slice errors.
func TestGridIndexUpdateValidation(t *testing.T) {
	idx := NewGridIndex(randPoints(10, rng.New(1)), 0.1)
	if err := idx.Update(make([]geom.Point, 9)); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestGridIndexZeroRange: r <= 0 yields and maintains an edgeless graph.
func TestGridIndexZeroRange(t *testing.T) {
	src := rng.New(2)
	pts := randPoints(20, src)
	idx := NewGridIndex(pts, 0)
	if edges(idx.Graph()) != 0 {
		t.Fatal("zero range produced edges")
	}
	if err := idx.Update(randPoints(20, src)); err != nil {
		t.Fatal(err)
	}
	if edges(idx.Graph()) != 0 {
		t.Fatal("zero range update produced edges")
	}
}

// TestGridIndexTinyRangeBoundsCells: a minuscule range over a wide spread
// must not allocate an unbounded dense grid.
func TestGridIndexTinyRangeBoundsCells(t *testing.T) {
	src := rng.New(3)
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64() * 1000, Y: src.Float64() * 1000}
	}
	idx := NewGridIndex(pts, 1e-6)
	if got := len(idx.buckets); got > 4*len(pts)+64 {
		t.Fatalf("dense grid has %d cells for %d points", got, len(pts))
	}
	graphsEqual(t, idx.Graph(), FromPoints(pts, 1e-6), "tiny range")
}

// BenchmarkGridIndexUpdateMobility measures the incremental maintenance
// under a mobility-like workload: every node jitters a little each step.
func BenchmarkGridIndexUpdateMobility(b *testing.B) {
	src := rng.New(7)
	pts := randPoints(1000, src)
	idx := NewGridIndex(pts, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pts {
			pts[j].X += (src.Float64() - 0.5) * 0.004
			pts[j].Y += (src.Float64() - 0.5) * 0.004
		}
		if err := idx.Update(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// churnOracle builds the expected unit-disk graph over the active subset
// by brute force: active pairs within range are adjacent, inactive slots
// are isolated vertices.
func churnOracle(pts []geom.Point, inactive []bool, r float64) *Graph {
	g := New(len(pts))
	for u := range pts {
		if inactive[u] {
			continue
		}
		for v := u + 1; v < len(pts); v++ {
			if !inactive[v] && pts[u].Dist2(pts[v]) <= r*r {
				if err := g.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// TestGridIndexChurnMatchesOracle drives random interleavings of Append,
// Deactivate, Reactivate, and Update (moves, including moves of inactive
// slots) and checks the incrementally maintained adjacency against the
// brute-force oracle after every operation.
func TestGridIndexChurnMatchesOracle(t *testing.T) {
	const r = 0.15
	for seed := int64(0); seed < 3; seed++ {
		src := rng.New(500 + seed)
		pts := randPoints(60, src)
		idx := NewGridIndexInRegion(pts, r, geom.UnitSquare())
		inactive := make([]bool, len(pts))
		for iter := 0; iter < 120; iter++ {
			switch src.Intn(4) {
			case 0: // append a fresh node
				p := geom.Point{X: src.Float64(), Y: src.Float64()}
				got := idx.Append(p)
				pts = append(pts, p)
				inactive = append(inactive, false)
				if got != len(pts)-1 {
					t.Fatalf("Append returned index %d, want %d", got, len(pts)-1)
				}
			case 1: // radio off
				i := src.Intn(len(pts))
				idx.Deactivate(i)
				inactive[i] = true
				if !idx.inactive[i] {
					t.Fatalf("node %d active after Deactivate", i)
				}
			case 2: // radio on
				i := src.Intn(len(pts))
				idx.Reactivate(i)
				inactive[i] = false
			default: // move a random subset (inactive slots included)
				next := append([]geom.Point(nil), pts...)
				for k := src.Intn(8); k > 0; k-- {
					i := src.Intn(len(pts))
					next[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
				}
				if err := idx.Update(next); err != nil {
					t.Fatal(err)
				}
				pts = next
			}
			graphsEqual(t, idx.Graph(), churnOracle(pts, inactive, r), "churn")
		}
	}
}

// TestGridIndexDeactivateIdempotent: double deactivate/reactivate and
// out-of-range indices are safe no-ops.
func TestGridIndexDeactivateIdempotent(t *testing.T) {
	src := rng.New(9)
	pts := randPoints(20, src)
	idx := NewGridIndex(pts, 0.3)
	want := idx.Graph().Clone()
	idx.Deactivate(-1)
	idx.Reactivate(99)
	idx.Reactivate(3) // already active
	graphsEqual(t, idx.Graph(), want, "no-op churn")
	idx.Deactivate(3)
	idx.Deactivate(3) // already inactive
	idx.Reactivate(3)
	graphsEqual(t, idx.Graph(), want, "deactivate/reactivate round trip")
}

// TestGridIndexCompactMatchesOracle: deactivate (kill) a subset, compact
// under the monotone remap, and compare the surviving graph against the
// brute-force unit-disk oracle over the surviving points.
func TestGridIndexCompactMatchesOracle(t *testing.T) {
	const r = 0.15
	for seed := int64(0); seed < 3; seed++ {
		src := rng.New(900 + seed)
		pts := randPoints(80, src)
		idx := NewGridIndexInRegion(pts, r, geom.UnitSquare())
		dead := make([]bool, len(pts))
		for k := 0; k < 25; k++ {
			i := src.Intn(len(pts))
			if !dead[i] {
				dead[i] = true
				idx.Deactivate(i)
			}
		}
		var survivors []geom.Point
		for i := range pts {
			if !dead[i] {
				survivors = append(survivors, pts[i])
			}
		}
		if err := idx.Compact(slot.Plan(len(pts), func(i int) bool { return dead[i] })); err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, idx.Graph(), FromPoints(survivors, r), "compacted graph")
		// The compacted index must keep working incrementally: move a
		// node, append one, and still match the oracle.
		survivors[0].X = 1 - survivors[0].X
		if err := idx.Update(survivors); err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, idx.Graph(), FromPoints(survivors, r), "post-compact update")
		p := geom.Point{X: src.Float64(), Y: src.Float64()}
		idx.Append(p)
		survivors = append(survivors, p)
		graphsEqual(t, idx.Graph(), FromPoints(survivors, r), "post-compact append")
	}
}

// TestCompactRejectsActiveSlot: the remap may only drop deactivated
// (edge-free) slots.
func TestCompactRejectsActiveSlot(t *testing.T) {
	pts := randPoints(10, rng.New(5))
	idx := NewGridIndex(pts, 0.3)
	dropFirst := slot.Plan(10, func(i int) bool { return i == 0 }) // slot 0 is still active
	if err := idx.Compact(dropFirst); err == nil {
		t.Fatal("compacting an active slot succeeded")
	}
}

// TestAdjacencyChangeHook: every incremental operation must notify every
// node whose adjacency list it changed (over-notification is allowed,
// silence is not — the frontier engine depends on it).
func TestAdjacencyChangeHook(t *testing.T) {
	src := rng.New(31)
	pts := randPoints(60, src)
	const r = 0.2
	idx := NewGridIndexInRegion(pts, r, geom.UnitSquare())
	notified := map[int]bool{}
	idx.SetOnAdjacencyChange(func(i int) { notified[i] = true })

	adjCopy := func() [][]int {
		g := idx.Graph()
		out := make([][]int, g.N())
		for i := range out {
			out[i] = append([]int(nil), g.Neighbors(i)...)
		}
		return out
	}
	check := func(ctx string, before [][]int) {
		t.Helper()
		g := idx.Graph()
		for i := 0; i < g.N() && i < len(before); i++ {
			cur := g.Neighbors(i)
			same := len(cur) == len(before[i])
			if same {
				for k := range cur {
					if cur[k] != before[i][k] {
						same = false
						break
					}
				}
			}
			if !same && !notified[i] {
				t.Fatalf("%s: node %d's adjacency changed without notification", ctx, i)
			}
		}
	}

	for iter := 0; iter < 60; iter++ {
		before := adjCopy()
		clear(notified)
		switch src.Intn(4) {
		case 0:
			for j := 0; j < 1+src.Intn(4); j++ {
				i := src.Intn(len(pts))
				pts[i].X = src.Float64()
				pts[i].Y = src.Float64()
			}
			if err := idx.Update(pts); err != nil {
				t.Fatal(err)
			}
			check("update", before)
		case 1:
			p := geom.Point{X: src.Float64(), Y: src.Float64()}
			idx.Append(p)
			pts = append(pts, p)
			check("append", before)
		case 2:
			idx.Deactivate(src.Intn(len(pts)))
			check("deactivate", before)
		case 3:
			idx.Reactivate(src.Intn(len(pts)))
			check("reactivate", before)
		}
	}
}

// TestGraphVersion pins the contract the routing and stretch caches key
// on: every Graph or GridIndex operation that changes an edge or the node
// numbering advances Version, and an Update that moves no edge leaves it
// where it was.
func TestGraphVersion(t *testing.T) {
	advances := func(g *Graph, what string, op func() error) {
		t.Helper()
		v := g.Version()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if g.Version() == v {
			t.Errorf("%s left Version at %d", what, v)
		}
	}

	g := New(2)
	advances(g, "Graph.AddNode", func() error { g.AddNode(); return nil })
	advances(g, "Graph.AddEdge", func() error { return g.AddEdge(0, 1) })
	advances(g, "Graph.Compact", func() error { return g.Compact(slot.Plan(3, func(i int) bool { return i == 2 })) })

	// Nodes 0 and 1 are neighbours; node 2 is far from both.
	pts := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.15, Y: 0.1}, {X: 0.8, Y: 0.8}}
	idx := NewGridIndexInRegion(pts, 0.1, geom.UnitSquare())
	g = idx.Graph()
	v := g.Version()
	pts[2] = geom.Point{X: 0.82, Y: 0.8}
	if err := idx.Update(pts); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v {
		t.Errorf("an Update that moved no edge advanced Version %d -> %d", v, g.Version())
	}
	pts[2] = geom.Point{X: 0.18, Y: 0.1}
	advances(g, "GridIndex.Update", func() error { return idx.Update(pts) })
	advances(g, "GridIndex.Append", func() error { idx.Append(geom.Point{X: 0.9, Y: 0.9}); return nil })
	advances(g, "GridIndex.Deactivate", func() error { idx.Deactivate(1); return nil })
	advances(g, "GridIndex.Reactivate", func() error { idx.Reactivate(1); return nil })
	idx.Deactivate(3)
	advances(g, "GridIndex.Compact", func() error { return idx.Compact(slot.Plan(4, func(i int) bool { return i == 3 })) })
}
