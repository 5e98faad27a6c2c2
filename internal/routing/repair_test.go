package routing

import (
	"errors"
	"fmt"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/deploy"
	"selfstab/internal/geom"
	"selfstab/internal/metric"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// sameSplit fails unless the table's component labels split the nodes
// exactly as g.Components does, up to renaming.
func sameSplit(t *testing.T, tag string, h *Hierarchical, g *topology.Graph) {
	t.Helper()
	want, _ := g.Components()
	toWant, toLive := map[int]int{}, map[int]int{}
	for u, c := range want {
		l := h.Component(u)
		if w, ok := toWant[l]; ok && w != c {
			t.Fatalf("%s: label %d spans components %d and %d (node %d)", tag, l, w, c, u)
		}
		if m, ok := toLive[c]; ok && m != l {
			t.Fatalf("%s: component %d carries labels %d and %d (node %d)", tag, c, m, l, u)
		}
		toWant[l], toLive[c] = c, l
	}
}

// sameAnswers fails unless live keeps the gateways and answers every
// NextHop exactly as a fresh Reset from g and a does.
func sameAnswers(t *testing.T, tag string, live *Hierarchical, g *topology.Graph, a *cluster.Assignment) {
	t.Helper()
	fresh, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if msg := gatewayDiff(live.Gateways(), fresh.Gateways()); msg != "" {
		t.Fatalf("%s: %s", tag, msg)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			next, err := live.NextHop(u, v)
			wantNext, wantErr := fresh.NextHop(u, v)
			if next != wantNext || !errors.Is(err, wantErr) {
				t.Fatalf("%s: NextHop(%d,%d) = (%d, %v), a fresh Reset says (%d, %v)", tag, u, v, next, err, wantNext, wantErr)
			}
		}
	}
}

// gatewayDiff names the first gateway, by cluster labels, that live keeps
// and fresh does not, or the other way round; "" when they agree.
func gatewayDiff(live, fresh []Gateway) string {
	for i := 0; i < len(live) || i < len(fresh); i++ {
		switch {
		case i == len(fresh):
			return fmt.Sprintf("the live table keeps %+v, a fresh Reset no gateway past %d", live[i], i)
		case i == len(live):
			return fmt.Sprintf("a fresh Reset keeps %+v, the live table no gateway past %d", fresh[i], i)
		case live[i] != fresh[i]:
			return fmt.Sprintf("the live table keeps %+v, a fresh Reset %+v", live[i], fresh[i])
		}
	}
	return ""
}

// selfHeads is the assignment in which every node heads its own cluster.
func selfHeads(n int) *cluster.Assignment {
	a := &cluster.Assignment{Head: make([]int, n), Parent: make([]int, n)}
	for u := range a.Head {
		a.Head[u], a.Parent[u] = u, u
	}
	return a
}

// line places n points x apart on a horizontal line starting at x0.
func line(n int, x0, dx float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + float64(i)*dx}
	}
	return pts
}

// grid places a cols x rows lattice of points d apart with its corner at
// (x0, y0).
func grid(cols, rows int, x0, y0, d float64) []geom.Point {
	var pts []geom.Point
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			pts = append(pts, geom.Point{X: x0 + float64(x)*d, Y: y0 + float64(y)*d})
		}
	}
	return pts
}

// TestComponentRepair pins the component repair on the four shapes a
// change takes: an edge removal that splits a component, an arrival that
// merges two, a departure that isolates one node, and a bridge removal
// that splits a large component, where the search must stop at the small
// side instead of relabelling the large one. Each row builds a table,
// changes the grid, repairs, and checks the labels against
// Graph.Components, the gateways and every NextHop against a fresh Reset,
// and that the repair ran instead of a rebuild. The radio range is 1.
func TestComponentRepair(t *testing.T) {
	bridged := append(grid(20, 20, 0, 0, 0.6), geom.Point{X: 12.0, Y: 5.7})
	bridged = append(bridged, grid(3, 3, 12.8, 5.1, 0.6)...)
	rows := []struct {
		name   string
		pts    []geom.Point
		change func(gi *topology.GridIndex, pts []geom.Point) []geom.Point // returns the points after it
		comps  [2]int                                                      // components before and after the change
		most   int                                                         // most nodes the component repair may visit, over all its searches
	}{
		{"edge removal splits", line(48, 0, 0.9), func(gi *topology.GridIndex, pts []geom.Point) []geom.Point {
			pts[24].X += 0.45 // 1.35 from node 23, 0.45 from node 25
			if err := gi.Update(pts); err != nil {
				t.Fatal(err)
			}
			return pts
		}, [2]int{1, 2}, 48}, // twice the smaller side
		{"arrival merges two", append(line(24, 0, 0.9), line(24, 22.5, 0.9)...), func(gi *topology.GridIndex, pts []geom.Point) []geom.Point {
			p := geom.Point{X: 21.6}
			gi.Append(p)
			return append(pts, p)
		}, [2]int{2, 1}, 25}, // the newcomer, then the right line joins the left
		{"departure isolates one node", grid(9, 9, 0, 0, 0.5), func(gi *topology.GridIndex, pts []geom.Point) []geom.Point {
			gi.Deactivate(40) // the centre, whose twelve neighbours stay joined
			return pts
		}, [2]int{1, 2}, 200}, // twelve replays of an expansion or two, some thirteen neighbours each
		{"bridge removal splits a large component", bridged, func(gi *topology.GridIndex, pts []geom.Point) []geom.Point {
			pts[400].X += 0.6 // the bridge node leaves the large grid's range
			if err := gi.Update(pts); err != nil {
				t.Fatal(err)
			}
			return pts
		}, [2]int{1, 2}, 60}, // the small side and as much of the large one, not its 400 nodes
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			pts := append([]geom.Point(nil), row.pts...)
			gi := topology.NewGridIndex(pts, 1)
			g := gi.Graph()
			if _, k := g.Components(); k != row.comps[0] {
				t.Fatalf("the world starts with %d components, want %d", k, row.comps[0])
			}
			h, err := build(g, selfHeads(g.N()))
			if err != nil {
				t.Fatal(err)
			}
			pts = row.change(gi, pts)
			a := selfHeads(g.N())
			if err := h.Repair(g, a, nil); err != nil {
				t.Fatal(err)
			}
			if _, k := g.Components(); k != row.comps[1] {
				t.Fatalf("the change left %d components, want %d", k, row.comps[1])
			}
			sameSplit(t, row.name, h, g)
			sameAnswers(t, row.name, h, g, a)
			w := h.Work()
			if w.Builds != 1 || w.Repairs != 1 {
				t.Fatalf("want one build and one repair, got %+v", w)
			}
			if w.ComponentNodesVisited == 0 || w.ComponentNodesVisited > row.most {
				t.Fatalf("the component repair visited %d nodes, want 1..%d of %d", w.ComponentNodesVisited, row.most, g.N())
			}
		})
	}
}

// TestRepairMatchesReset is the repair's own oracle: on seeded unit-disk
// worlds, a table repaired round after round — nodes moving, switched off
// and on, arriving, and changing head or parent, a few at a time — keeps
// the gateways and answers every NextHop as a fresh Reset from the same
// graph and assignment does, and its component labels split the nodes as
// Graph.Components does.
func TestRepairMatchesReset(t *testing.T) {
	src := rng.New(20261020)
	repairs := 0
	for wi := 0; wi < 16; wi++ {
		n := 60 + src.Intn(60)
		pts := deploy.Uniform(n, geom.UnitSquare(), src)
		gi := topology.NewGridIndex(pts, 0.1+0.1*src.Float64())
		g := gi.Graph()
		a, err := cluster.Compute(g, cluster.Config{
			Values: metric.Density{}.Values(g),
			TieIDs: deploy.AssignIDs(pts, deploy.IDRandom, src),
			Order:  cluster.OrderBasic,
		})
		if err != nil {
			t.Fatal(err)
		}
		live, err := build(g, a)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 15; round++ {
			switch src.Intn(4) {
			case 0:
				for k := 1 + src.Intn(3); k > 0; k-- {
					i := src.Intn(len(pts))
					pts[i].X += 0.1 * (src.Float64() - 0.5)
					pts[i].Y += 0.1 * (src.Float64() - 0.5)
				}
				if err := gi.Update(pts); err != nil {
					t.Fatal(err)
				}
			case 1:
				i := src.Intn(len(pts))
				gi.Deactivate(i)
				gi.Reactivate(src.Intn(len(pts)))
			case 2:
				p := geom.Point{X: src.Float64(), Y: src.Float64()}
				u := gi.Append(p)
				pts = append(pts, p)
				a.Head, a.Parent = append(a.Head, u), append(a.Parent, u)
				if nb := g.Neighbors(u); len(nb) > 0 {
					a.Head[u], a.Parent[u] = a.Head[nb[0]], nb[0]
				}
			}
			old := len(live.rec)
			var moved []int32
			for k := src.Intn(6); k > 0; k-- {
				u := src.Intn(old)
				switch nb := g.Neighbors(u); {
				case src.Intn(4) == 0:
					a.Parent[u] = src.Intn(g.N()) // a parent, maybe of a label node, anywhere
				case len(nb) > 0:
					w := nb[src.Intn(len(nb))]
					a.Head[u], a.Parent[u] = a.Head[w], w
				default:
					a.Head[u], a.Parent[u] = u, u
				}
				moved = append(moved, int32(u))
			}
			if err := live.Repair(g, a, moved); err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("world %d round %d", wi, round)
			sameSplit(t, tag, live, g)
			sameAnswers(t, tag, live, g, a)
		}
		w := live.Work()
		repairs += w.Repairs
		if w.TreesKept == 0 {
			t.Fatalf("world %d: no repair kept a tree: %+v", wi, w)
		}
	}
	if repairs < 16*15*3/4 {
		t.Fatalf("only %d of %d rounds repaired", repairs, 16*15)
	}
}
