package viz

import (
	"strings"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/geom"
	"selfstab/internal/metric"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

func demoNetwork(t *testing.T) (*topology.Graph, []geom.Point, *cluster.Assignment) {
	t.Helper()
	src := rng.New(1)
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
	}
	g := topology.FromPoints(pts, 0.25)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	a, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, pts, a
}

func TestSVGWellFormed(t *testing.T) {
	g, pts, a := demoNetwork(t)
	svg, err := SVG(g, pts, a, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("not a complete SVG document")
	}
	if got := strings.Count(svg, "<circle"); got != g.N() {
		t.Errorf("drew %d circles for %d nodes", got, g.N())
	}
	degrees := 0
	for u := 0; u < g.N(); u++ {
		degrees += g.Degree(u)
	}
	if got := strings.Count(svg, "<line"); got != degrees/2 {
		t.Errorf("drew %d lines for %d edges", got, degrees/2)
	}
	// Heads are outlined.
	if got := strings.Count(svg, `stroke="black"`); got != len(a.Heads()) {
		t.Errorf("drew %d outlined heads, want %d", got, len(a.Heads()))
	}
}

func TestSVGValidation(t *testing.T) {
	g, pts, a := demoNetwork(t)
	if _, err := SVG(g, pts[:3], a, 400); err == nil {
		t.Error("point mismatch accepted")
	}
	short := &cluster.Assignment{Parent: a.Parent[:2], Head: a.Head[:2]}
	if _, err := SVG(g, pts, short, 400); err == nil {
		t.Error("assignment mismatch accepted")
	}
}

func TestSVGMinimumSize(t *testing.T) {
	g, pts, a := demoNetwork(t)
	svg, err := SVG(g, pts, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, `width="64"`) {
		t.Error("size not clamped to minimum")
	}
}

func TestASCIIShape(t *testing.T) {
	g, pts, a := demoNetwork(t)
	out, err := ASCII(g, pts, a, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("got %d rows, want 10", len(lines))
	}
	for i, l := range lines {
		if len(l) != 20 {
			t.Errorf("row %d has %d cols, want 20", i, len(l))
		}
	}
}

func TestASCIIMarksHeads(t *testing.T) {
	g, pts, a := demoNetwork(t)
	out, err := ASCII(g, pts, a, 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	upper := 0
	for _, ch := range out {
		if ch >= 'A' && ch <= 'Z' {
			upper++
		}
	}
	// Every head should land in some cell; collisions can only merge two
	// heads into one cell, so at least one uppercase letter must appear.
	if upper == 0 {
		t.Error("no cluster-heads rendered uppercase")
	}
	if upper > len(a.Heads()) {
		t.Errorf("%d uppercase cells but only %d heads", upper, len(a.Heads()))
	}
}

func TestASCIIValidation(t *testing.T) {
	g, pts, a := demoNetwork(t)
	if _, err := ASCII(g, pts, a, 0, 10); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := ASCII(g, pts[:2], a, 5, 5); err == nil {
		t.Error("point mismatch accepted")
	}
	short := &cluster.Assignment{Parent: a.Parent[:2], Head: a.Head[:2]}
	if _, err := ASCII(g, pts, short, 5, 5); err == nil {
		t.Error("assignment mismatch accepted")
	}
}

func TestSingleNodeRenders(t *testing.T) {
	g := topology.New(1)
	pts := []geom.Point{{X: 0.5, Y: 0.5}}
	a := &cluster.Assignment{Parent: []int{0}, Head: []int{0}}
	svg, err := SVG(g, pts, a, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<circle") {
		t.Error("node not drawn")
	}
	txt, err := ASCII(g, pts, a, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "A") {
		t.Errorf("head not uppercase:\n%s", txt)
	}
}

func TestManyClustersPaletteCycles(t *testing.T) {
	// More clusters than palette entries (the Table 5 with-DAG case has
	// ~110): rendering must still succeed with colors reused.
	n := 60
	g := topology.New(n) // no edges: every node is its own cluster
	pts := make([]geom.Point, n)
	parent := make([]int, n)
	head := make([]int, n)
	src := rng.New(31)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
		parent[i] = i
		head[i] = i
	}
	a := &cluster.Assignment{Parent: parent, Head: head}
	svg, err := SVG(g, pts, a, 300)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<circle") != n {
		t.Error("not all singleton clusters drawn")
	}
	txt, err := ASCII(g, pts, a, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	// All rendered letters must be uppercase (every node is a head).
	for _, ch := range txt {
		if ch >= 'a' && ch <= 'z' {
			t.Fatalf("head rendered lowercase:\n%s", txt)
		}
	}
}

func TestSVGUnresolvedHeadFallback(t *testing.T) {
	// Transient states can reference heads that are not fixpoints; the
	// renderer paints them gray instead of failing.
	g := topology.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.8}}
	// Crossed parents: no node is a parent fixpoint, so Heads() is empty
	// and every Head reference is unresolved.
	a := &cluster.Assignment{Parent: []int{1, 0}, Head: []int{1, 0}}
	svg, err := SVG(g, pts, a, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "#cccccc") {
		t.Error("unresolved heads should render gray")
	}
}
