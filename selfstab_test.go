package selfstab

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestNewRandomNetwork(t *testing.T) {
	net, err := NewRandomNetwork(100, WithSeed(1), WithRange(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 100 {
		t.Errorf("N = %d", net.N())
	}
	if net.Range() != 0.15 {
		t.Errorf("Range = %v", net.Range())
	}
	if len(net.IDs()) != 100 || len(net.Positions()) != 100 {
		t.Error("accessor lengths wrong")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewRandomNetwork(0); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := NewPoissonNetwork(-5); err == nil {
		t.Error("negative intensity accepted")
	}
	if _, err := NewGridNetwork(0, 5); err == nil {
		t.Error("0-row grid accepted")
	}
	if _, err := NewHotspotNetwork(0, 2, 0.05); err == nil || !strings.Contains(err.Error(), "at least one node") {
		t.Errorf("0-node hotspot deployment: %v", err)
	}
	if _, err := NewNetwork(nil); err == nil {
		t.Error("empty positions accepted")
	}
	if _, err := NewNetwork([]Point{{X: 2, Y: 0}}); err == nil {
		t.Error("out-of-square position accepted")
	}
}

func TestOptionValidation(t *testing.T) {
	pts := []Point{{X: 0.5, Y: 0.5}}
	bad := []Option{
		WithRange(0),
		WithRange(1.5),
		WithTau(0),
		WithTau(2),
		WithSlottedRadio(0),
		WithCacheTTL(-1),
		WithDAG(-1),
		WithStableWindow(0),
		WithStableWindow(-3),
	}
	for i, opt := range bad {
		if _, err := NewNetwork(pts, opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
	if _, err := NewNetwork(pts, WithIDs([]int64{1, 2})); err == nil {
		t.Error("id length mismatch accepted")
	}
	if _, err := NewNetwork([]Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, WithIDs([]int64{7, 7})); err == nil {
		t.Error("duplicate ids accepted")
	}
}

// TestWithStableWindow: a wider window cannot report an earlier
// stabilization step than a narrow one on the same instance, and both must
// reach the same verified fixpoint.
func TestWithStableWindow(t *testing.T) {
	stabAt := func(window int) int {
		net, err := NewRandomNetwork(80, WithSeed(9), WithRange(0.15), WithStableWindow(window))
		if err != nil {
			t.Fatal(err)
		}
		at, err := net.Stabilize(500)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Verify(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	narrow := stabAt(1)
	wide := stabAt(20)
	if wide < narrow {
		t.Errorf("window 20 reported stabilization at %d, before window 1's %d", wide, narrow)
	}
}

func TestStabilizeAndClusters(t *testing.T) {
	net, err := NewRandomNetwork(120, WithSeed(2), WithRange(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	clusters := net.Clusters()
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	total := 0
	for _, c := range clusters {
		total += len(c.Members)
		found := false
		for _, m := range c.Members {
			if m == c.HeadID {
				found = true
			}
		}
		if !found {
			t.Errorf("cluster %d does not contain its head", c.HeadID)
		}
	}
	if total != net.N() {
		t.Errorf("clusters cover %d of %d nodes", total, net.N())
	}
	if err := net.Verify(); err != nil {
		t.Errorf("verify after stabilize: %v", err)
	}
}

func TestVerifyDetectsUnstabilized(t *testing.T) {
	net, err := NewRandomNetwork(120, WithSeed(3), WithRange(0.15))
	if err != nil {
		t.Fatal(err)
	}
	// Cold boot, zero steps: densities are all zero, which cannot match
	// Definition 1 on a connected random graph.
	if err := net.Verify(); err == nil {
		t.Error("verify passed on an unstabilized network")
	}
}

// TestVerifyErrorsNameIdentifiers: on a world whose identifiers are far
// from its slot numbers, every node Verify names while the world
// stabilizes, the failing node and both heads alike, is an identifier.
func TestVerifyErrorsNameIdentifiers(t *testing.T) {
	ids := make([]int64, 120)
	known := make(map[string]bool, len(ids))
	for i := range ids {
		ids[i] = 1_000_003 + 1_000*int64(i)
		known[strconv.FormatInt(ids[i], 10)] = true
	}
	net, err := NewRandomNetwork(len(ids), WithSeed(3), WithRange(0.15), WithIDs(ids))
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`(node|heads|fixpoint) (-?\d+)`)
	var sawDensity, sawHead bool
	for step := 0; ; step++ {
		err := net.Verify()
		if err == nil {
			break
		}
		if step == 200 {
			t.Fatalf("not stabilized after %d steps: %v", step, err)
		}
		found := named.FindAllStringSubmatch(err.Error(), -1)
		if len(found) == 0 {
			t.Fatalf("step %d: %q names no node", step, err)
		}
		for _, m := range found {
			if !known[m[2]] {
				t.Errorf("step %d: %q names %s %s, not an identifier", step, err, m[1], m[2])
			}
		}
		sawDensity = sawDensity || strings.Contains(err.Error(), "density")
		sawHead = sawHead || strings.Contains(err.Error(), "heads")
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawDensity || !sawHead {
		t.Errorf("density error seen %v, head error seen %v; want both", sawDensity, sawHead)
	}
}

// TestVerifyAfterFaultsNamesIdentifiers: after every state is corrupted,
// nodes point at head identifiers no node carries. Verify must report
// them, naming the failing node and the oracle's head by identifier,
// on every step until the world heals.
func TestVerifyAfterFaultsNamesIdentifiers(t *testing.T) {
	ids := make([]int64, 120)
	known := make(map[string]bool, len(ids))
	for i := range ids {
		ids[i] = 1_000_003 + 1_000*int64(i)
		known[strconv.FormatInt(ids[i], 10)] = true
	}
	net, err := NewRandomNetwork(len(ids), WithSeed(3), WithRange(0.15), WithIDs(ids))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	net.InjectFaults(1.0)
	named := regexp.MustCompile(`(node|fixpoint) (-?\d+)`)
	var sawHead bool
	for step := 0; ; step++ {
		err := net.Verify()
		if err == nil {
			break
		}
		if step == 200 {
			t.Fatalf("not healed after %d steps: %v", step, err)
		}
		for _, m := range named.FindAllStringSubmatch(err.Error(), -1) {
			if !known[m[2]] {
				t.Errorf("step %d: %q names %s %s, not an identifier", step, err, m[1], m[2])
			}
		}
		sawHead = sawHead || strings.Contains(err.Error(), "heads")
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawHead {
		t.Error("no head error seen while healing")
	}
}

func TestSelfHealing(t *testing.T) {
	net, err := NewRandomNetwork(100, WithSeed(4), WithRange(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	before := net.Clusters()
	net.InjectFaults(1.0)
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatalf("network did not heal: %v", err)
	}
	after := net.Clusters()
	if len(before) != len(after) {
		t.Errorf("cluster count changed across healing: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i].HeadID != after[i].HeadID {
			t.Errorf("cluster %d head changed: %d -> %d", i, before[i].HeadID, after[i].HeadID)
		}
	}
}

func TestInjectFaultsNoop(t *testing.T) {
	net, err := NewRandomNetwork(10, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(200); err != nil {
		t.Fatal(err)
	}
	net.InjectFaults(0) // must be a no-op
	if err := net.Verify(); err != nil {
		t.Errorf("zero-fraction fault injection changed state: %v", err)
	}
}

func TestWithDAGNetwork(t *testing.T) {
	net, err := NewGridNetwork(16, 16, WithSeed(6), WithRange(0.08), WithRowMajorIDs(), WithDAG(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(1000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	// The DAG must rescue the adversarial grid from the single-cluster
	// collapse.
	if got := net.Stats().Clusters; got < 4 {
		t.Errorf("grid with DAG produced only %d clusters", got)
	}
}

func TestAdversarialGridWithoutDAGCollapses(t *testing.T) {
	net, err := NewGridNetwork(16, 16, WithSeed(7), WithRange(0.08), WithRowMajorIDs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(5000); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().Clusters; got > 2 {
		t.Errorf("adversarial grid without DAG should collapse, got %d clusters", got)
	}
}

func TestLossyNetworkStabilizes(t *testing.T) {
	net, err := NewRandomNetwork(60, WithSeed(8), WithRange(0.2), WithTau(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(3000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Error(err)
	}
}

func TestSlottedNetworkStabilizes(t *testing.T) {
	net, err := NewRandomNetwork(50, WithSeed(9), WithRange(0.2), WithSlottedRadio(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(3000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Error(err)
	}
}

func TestMobilityViaSetPositions(t *testing.T) {
	net, err := NewRandomNetwork(60, WithSeed(10), WithRange(0.2), WithCacheTTL(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	// Drift every node slightly and re-stabilize.
	pts := net.Positions()
	for i := range pts {
		pts[i].X = clamp01(pts[i].X + 0.01)
		pts[i].Y = clamp01(pts[i].Y - 0.01)
	}
	if err := net.SetPositions(pts); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Error(err)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestSetPositionsValidation(t *testing.T) {
	net, err := NewRandomNetwork(10, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetPositions([]Point{{X: 0.5, Y: 0.5}}); err == nil {
		t.Error("length mismatch accepted")
	}
	pts := net.Positions()
	pts[0].X = 5
	if err := net.SetPositions(pts); err == nil {
		t.Error("out-of-region accepted")
	}
}

func TestStateAndNeighbors(t *testing.T) {
	net, err := NewRandomNetwork(30, WithSeed(12), WithRange(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(300); err != nil {
		t.Fatal(err)
	}
	st, err := net.State(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.IsHead != (st.HeadID == st.ID) {
		t.Error("IsHead inconsistent")
	}
	if _, err := net.State(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := net.State(999); err == nil {
		t.Error("out-of-range index accepted")
	}
	// A stabilized node's parent is itself or one of its radio neighbors.
	ok := st.ParentID == st.ID
	for _, v := range net.grid.Graph().Neighbors(0) {
		ok = ok || net.IDs()[v] == st.ParentID
	}
	if !ok {
		t.Errorf("parent %d of node %d is not a neighbor", st.ParentID, st.ID)
	}
}

func TestRendering(t *testing.T) {
	net, err := NewRandomNetwork(40, WithSeed(13), WithRange(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(300); err != nil {
		t.Fatal(err)
	}
	txt, err := net.RenderASCII(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(txt), "\n")) != 10 {
		t.Error("ascii shape wrong")
	}
}

func TestRenderingBeforeStabilization(t *testing.T) {
	// Rendering a cold network must not fail even though head ids are
	// self-referential and densities are zero.
	net, err := NewRandomNetwork(20, WithSeed(14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RenderASCII(10, 20); err != nil {
		t.Errorf("cold render: %v", err)
	}
}

func TestStickyAndFusionOptionsWork(t *testing.T) {
	net, err := NewRandomNetwork(80, WithSeed(16), WithRange(0.12),
		WithStickyHeads(), WithFusion())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(1000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Error(err)
	}
	// Fusion invariant: any two heads at least 3 hops apart — Verify
	// already checks via CheckInvariants; sanity check head count > 0.
	if net.Stats().Clusters < 1 {
		t.Error("no clusters")
	}
}

func TestGridNetworkSingleCell(t *testing.T) {
	net, err := NewGridNetwork(1, 1, WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(50); err != nil {
		t.Fatal(err)
	}
	cl := net.Clusters()
	if len(cl) != 1 || len(cl[0].Members) != 1 {
		t.Errorf("singleton network clusters: %+v", cl)
	}
}

func TestPoissonNetwork(t *testing.T) {
	net, err := NewPoissonNetwork(200, WithSeed(18), WithRange(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if net.N() < 100 || net.N() > 320 {
		t.Errorf("Poisson(200) produced %d nodes", net.N())
	}
}

func TestHotspotNetworkOneHeadPerSite(t *testing.T) {
	// Well-separated tight hotspots: the density metric should elect few
	// heads — on the order of the number of sites, NOT one per arbitrary
	// id neighborhood.
	net, err := NewHotspotNetwork(200, 4, 0.02, WithSeed(50), WithRange(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(1000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	got := net.Stats().Clusters
	if got > 12 {
		t.Errorf("hotspot deployment produced %d clusters for 4 sites", got)
	}
}

func TestHotspotNetworkValidation(t *testing.T) {
	if _, err := NewHotspotNetwork(10, 0, 0.05); err == nil {
		t.Error("zero hotspots accepted")
	}
	if _, err := NewHotspotNetwork(10, 2, -1); err == nil {
		t.Error("negative spread accepted")
	}
}
