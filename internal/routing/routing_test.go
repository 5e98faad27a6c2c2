package routing

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/deploy"
	"selfstab/internal/geom"
	"selfstab/internal/metric"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

func clusteredNetwork(t *testing.T, seed int64, n int, r float64) (*topology.Graph, *cluster.Assignment) {
	t.Helper()
	src := rng.New(seed)
	pts := deploy.Uniform(n, geom.UnitSquare(), src)
	g := topology.FromPoints(pts, r)
	a, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: deploy.AssignIDs(pts, deploy.IDRandom, src),
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

// build returns a fresh table over the assignment.
func build(g *topology.Graph, a *cluster.Assignment) (*Hierarchical, error) {
	h := new(Hierarchical)
	return h, h.Reset(g, a)
}

// hopDistances is a plain BFS over g: the hop distance from u to every
// node, -1 where unreachable.
func hopDistances(g *topology.Graph, u int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	for queue := []int{u}; len(queue) > 0; queue = queue[1:] {
		for _, w := range g.Neighbors(queue[0]) {
			if dist[w] < 0 {
				dist[w] = dist[queue[0]] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func validatePath(t *testing.T, g *topology.Graph, path []int, src, dst int) {
	t.Helper()
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("path endpoints wrong: %v (want %d..%d)", path, src, dst)
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			t.Fatalf("path uses non-edge (%d, %d): %v", path[i-1], path[i], path)
		}
	}
}

func TestHierarchicalRoutesValid(t *testing.T) {
	g, a := clusteredNetwork(t, 4, 120, 0.15)
	h, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	routed, unreachable := 0, 0
	for src := 0; src < g.N(); src += 11 {
		dist := hopDistances(g, src)
		for dst := 0; dst < g.N(); dst += 7 {
			path, err := h.Route(src, dst)
			if err != nil {
				if dist[dst] >= 0 && errors.Is(err, ErrUnreachable) {
					// Hierarchical routing can only fail for physically
					// unreachable pairs: connected clusters always have
					// overlay routes.
					t.Errorf("(%d,%d): physically reachable but hierarchically unreachable", src, dst)
				}
				unreachable++
				continue
			}
			validatePath(t, g, path, src, dst)
			routed++
		}
	}
	if routed == 0 {
		t.Fatal("no pairs routed")
	}
	_ = unreachable
}

func TestHierarchicalIntraClusterDirect(t *testing.T) {
	g, a := clusteredNetwork(t, 5, 80, 0.2)
	h, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	// Same-cluster pairs route without leaving the cluster.
	for src := 0; src < g.N(); src++ {
		for dst := range a.Head {
			if a.Head[dst] != a.Head[src] {
				continue
			}
			path, err := h.Route(src, dst)
			if err != nil {
				t.Fatalf("(%d,%d) same cluster: %v", src, dst, err)
			}
			for _, hop := range path {
				if a.Head[hop] != a.Head[src] {
					t.Fatalf("intra route left the cluster: %v", path)
				}
			}
		}
		if src > 20 {
			break // a sample suffices
		}
	}
}

func TestHierarchicalStretchBounded(t *testing.T) {
	g, a := clusteredNetwork(t, 6, 150, 0.15)
	h, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	var totalHier, totalShort int
	for src := 0; src < g.N(); src += 13 {
		dist := hopDistances(g, src)
		for dst := 0; dst < g.N(); dst += 9 {
			if src == dst || dist[dst] < 0 {
				continue
			}
			path, err := h.Route(src, dst)
			if err != nil {
				continue
			}
			totalHier += len(path) - 1
			totalShort += dist[dst]
		}
	}
	if totalShort == 0 {
		t.Skip("no connected sample pairs")
	}
	stretch := float64(totalHier) / float64(totalShort)
	if stretch < 1 {
		t.Errorf("stretch %v < 1: hierarchical routes shorter than shortest paths", stretch)
	}
	if stretch > 3 {
		t.Errorf("stretch %v > 3: implausibly long detours", stretch)
	}
}

func TestHierarchicalValidation(t *testing.T) {
	g, a := clusteredNetwork(t, 8, 20, 0.3)
	short := &cluster.Assignment{Parent: a.Parent[:2], Head: a.Head[:2]}
	if _, err := build(g, short); err == nil {
		t.Error("short assignment accepted")
	}
	h, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Route(-1, 0); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := h.Route(0, 999); err == nil {
		t.Error("out-of-range dst accepted")
	}
}

func TestHierarchicalDisconnected(t *testing.T) {
	// Two separate triangles.
	g := topology.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ids := []int64{0, 1, 2, 3, 4, 5}
	a, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Route(0, 4); !errors.Is(err, ErrUnreachable) {
		t.Errorf("cross-component route: %v", err)
	}
	path, err := h.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	validatePath(t, g, path, 0, 2)
}

// TestNextHopWalksMatchRoute: repeatedly taking NextHop must retrace the
// exact path Route returns — the per-packet primitive and the path oracle
// may never disagree.
func TestNextHopWalksMatchRoute(t *testing.T) {
	g, a := clusteredNetwork(t, 11, 150, 0.14)
	h, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.N(); src += 13 {
		for dst := 0; dst < g.N(); dst += 17 {
			path, err := h.Route(src, dst)
			if errors.Is(err, ErrUnreachable) {
				if _, err := h.NextHop(src, dst); !errors.Is(err, ErrUnreachable) {
					t.Errorf("(%d,%d): Route unreachable but NextHop said %v", src, dst, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			cur := src
			for i := 1; i < len(path); i++ {
				next, err := h.NextHop(cur, dst)
				if err != nil {
					t.Fatalf("(%d,%d) at %d: %v", src, dst, cur, err)
				}
				if next != path[i] {
					t.Fatalf("(%d,%d): NextHop at %d gave %d, Route path has %d", src, dst, cur, next, path[i])
				}
				cur = next
			}
			if cur != dst {
				t.Fatalf("(%d,%d): walk ended at %d", src, dst, cur)
			}
		}
	}
}

// TestNextHopSelfAndValidation: dst == cur returns cur; out-of-range
// endpoints error.
func TestNextHopSelfAndValidation(t *testing.T) {
	g, a := clusteredNetwork(t, 2, 40, 0.25)
	h, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if next, err := h.NextHop(3, 3); err != nil || next != 3 {
		t.Errorf("self next-hop = (%d, %v), want (3, nil)", next, err)
	}
	if _, err := h.NextHop(-1, 0); err == nil {
		t.Error("negative cur accepted")
	}
	if _, err := h.NextHop(0, g.N()); err == nil {
		t.Error("out-of-range dst accepted")
	}
}

// TestCrossPartitionAlwaysUnreachable: even under an adversarial
// assignment whose head pointers cross partition boundaries (a transient,
// mid-convergence state), routing between components must fail with
// ErrUnreachable — never a loop error or a bogus path.
func TestCrossPartitionAlwaysUnreachable(t *testing.T) {
	// Two separate triangles, but the assignment claims node 3's head is
	// node 0 (in the other component) and groups everyone under it.
	g := topology.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	adversarial := &cluster.Assignment{
		Head:   []int{0, 0, 0, 0, 0, 0},
		Parent: []int{0, 0, 0, 0, 3, 3},
	}
	h, err := build(g, adversarial)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 1, 2} {
		for _, v := range []int{3, 4, 5} {
			if _, err := h.Route(u, v); !errors.Is(err, ErrUnreachable) {
				t.Errorf("Route(%d,%d) under adversarial assignment: %v, want ErrUnreachable", u, v, err)
			}
			if _, err := h.Route(v, u); !errors.Is(err, ErrUnreachable) {
				t.Errorf("Route(%d,%d) under adversarial assignment: %v, want ErrUnreachable", v, u, err)
			}
			if _, err := h.NextHop(u, v); !errors.Is(err, ErrUnreachable) {
				t.Errorf("NextHop(%d,%d) under adversarial assignment: %v, want ErrUnreachable", u, v, err)
			}
		}
	}
	// Same-component pairs sharing the (cross-partition) cluster id still
	// route inside their own component.
	path, err := h.Route(3, 5)
	if err != nil {
		t.Fatalf("same-component route under adversarial assignment: %v", err)
	}
	validatePath(t, g, path, 3, 5)
}

// TestSingleNodeGraph: routing on a one-node network is trivial but must
// not panic or error.
func TestSingleNodeGraph(t *testing.T) {
	g := topology.New(1)
	a := &cluster.Assignment{Head: []int{0}, Parent: []int{0}}
	h, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	path, err := h.Route(0, 0)
	if err != nil || len(path) != 1 || path[0] != 0 {
		t.Errorf("Route(0,0) = (%v, %v), want ([0], nil)", path, err)
	}
}

// oracleGraph draws a unit-disk graph sparse enough to fall apart into
// several components, then cuts every edge of a few nodes: the isolated
// slots a dead or sleeping node leaves behind.
func oracleGraph(src *rng.Source, n int) (*topology.Graph, []int64) {
	pts := deploy.Uniform(n, geom.UnitSquare(), src)
	ids := deploy.AssignIDs(pts, deploy.IDRandom, src)
	g := topology.FromPoints(pts, 0.12+0.3*src.Float64())
	for u := 0; u < n; u++ {
		if src.Intn(8) == 0 {
			g.RemoveNode(u)
		}
	}
	return g, ids
}

// oracleAssignment returns, by kind: the converged clustering; that
// clustering with a third of the nodes pointing at arbitrary heads and
// parents (labels whose own Parent is not self, heads in other components);
// or arbitrary labels from a small pool, so clusters span components.
func oracleAssignment(t *testing.T, src *rng.Source, g *topology.Graph, ids []int64, kind int) *cluster.Assignment {
	t.Helper()
	n := g.N()
	a, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := 1 + src.Intn(n)
	for u := 0; u < n; u++ {
		switch {
		case kind == 1 && src.Intn(3) == 0:
			a.Head[u], a.Parent[u] = src.Intn(n), src.Intn(n)
		case kind == 2:
			a.Head[u], a.Parent[u] = src.Intn(pool), src.Intn(n)
		}
	}
	return a
}

// TestHierarchicalMatchesReference is the table oracle: on seeded random
// graphs under converged and scrambled assignments, one reused table
// answers every NextHop and Route exactly as the eager reference does,
// errors included, whatever order the trees fill in.
func TestHierarchicalMatchesReference(t *testing.T) {
	src := rng.New(20260930)
	live := new(Hierarchical)
	cases := 0
	for gi := 0; gi < 80; gi++ {
		n := 1 + src.Intn(40)
		if gi < 3 {
			n = 1
		}
		g, ids := oracleGraph(src, n)
		for kind := 0; kind < 3; kind++ {
			cases++
			a := oracleAssignment(t, src, g, ids, kind)
			ref, err := buildReference(g, a)
			if err != nil {
				t.Fatal(err)
			}
			// Same graph, same version across the three kinds: the
			// component labels are the retained ones.
			if err := live.Reset(g, a); err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("graph %d (n=%d) kind %d", gi, n, kind)
			for _, u := range src.Perm(n) {
				for _, v := range src.Perm(n) {
					next, err := live.NextHop(u, v)
					wantNext, wantErr := ref.NextHop(u, v)
					if next != wantNext || errors.Is(err, ErrUnreachable) != errors.Is(wantErr, ErrUnreachable) || (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: NextHop(%d,%d) = (%d, %v), reference (%d, %v)", tag, u, v, next, err, wantNext, wantErr)
					}
					path, err := live.Route(u, v)
					wantPath, wantErr := ref.Route(u, v)
					if !slices.Equal(path, wantPath) || errors.Is(err, ErrUnreachable) != errors.Is(wantErr, ErrUnreachable) || (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: Route(%d,%d) = (%v, %v), reference (%v, %v)", tag, u, v, path, err, wantPath, wantErr)
					}
				}
			}
			for _, q := range [][2]int{{-1, 0}, {0, n}, {n, -1}} {
				_, err := live.NextHop(q[0], q[1])
				_, wantErr := ref.NextHop(q[0], q[1])
				_, rerr := live.Route(q[0], q[1])
				if err == nil || err.Error() != wantErr.Error() || rerr == nil || rerr.Error() != wantErr.Error() {
					t.Fatalf("%s: out-of-range %v: NextHop %v, Route %v, reference %v", tag, q, err, rerr, wantErr)
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases", cases)
	}
}

// refTable is the eager builder the package shipped before the table became
// demand-filled, kept verbatim as the reference: every intra-cluster entry,
// overlay entry and gateway is computed up front into maps. The live table
// must answer every query exactly as this one does, errors included.
type refTable struct {
	g    *topology.Graph
	head []int
	// comp labels connected components of the true topology: routing
	// between different components fails with ErrUnreachable immediately,
	// regardless of how scrambled a mid-convergence assignment is (a
	// transient head choice must never turn "unreachable" into a loop
	// error).
	comp []int
	// intra[u] maps same-cluster destinations to u's next hop.
	intra []map[int]int
	// overlayNext[h] maps a destination head to the next head on the
	// overlay path.
	overlayNext map[int]map[int]int
	// gateway[h1][h2] is the border edge (u in h1's cluster, v in h2's)
	// used to cross between adjacent clusters.
	gateway map[int]map[int][2]int
}

// buildReference computes the reference table for an assignment.
func buildReference(g *topology.Graph, a *cluster.Assignment) (*refTable, error) {
	n := g.N()
	if len(a.Head) != n {
		return nil, fmt.Errorf("routing: assignment for %d nodes, graph has %d", len(a.Head), n)
	}
	comp, _ := g.Components()
	h := &refTable{
		g:           g,
		head:        append([]int(nil), a.Head...),
		comp:        comp,
		intra:       make([]map[int]int, n),
		overlayNext: make(map[int]map[int]int),
		gateway:     make(map[int]map[int][2]int),
	}

	// Intra-cluster tables: BFS restricted to the cluster, per member.
	members := make(map[int][]int)
	for u := 0; u < n; u++ {
		members[a.Head[u]] = append(members[a.Head[u]], u)
		h.intra[u] = make(map[int]int)
	}
	inCluster := make([]bool, n)
	for head, ms := range members {
		for _, u := range ms {
			inCluster[u] = true
		}
		for _, dst := range ms {
			parent := bfsParentsWithin(g, dst, inCluster)
			for _, src := range ms {
				if src != dst && parent[src] >= 0 {
					h.intra[src][dst] = parent[src]
				}
			}
		}
		for _, u := range ms {
			inCluster[u] = false
		}
		_ = head
	}

	// Cluster overlay: heads adjacent when their clusters share a border
	// edge; remember one deterministic gateway edge per cluster pair.
	heads := a.Heads()
	overlay := topology.New(n) // sparse use: only head indices get edges
	for u := 0; u < n; u++ {
		hu := a.Head[u]
		for _, v := range g.Neighbors(u) {
			hv := a.Head[v]
			if hu == hv {
				continue
			}
			if h.gateway[hu] == nil {
				h.gateway[hu] = make(map[int][2]int)
			}
			gw, exists := h.gateway[hu][hv]
			// Keep the lexicographically smallest border edge so the
			// table is deterministic.
			if !exists || u < gw[0] || (u == gw[0] && v < gw[1]) {
				h.gateway[hu][hv] = [2]int{u, v}
			}
			if !overlay.HasEdge(hu, hv) {
				if err := overlay.AddEdge(hu, hv); err != nil {
					return nil, err
				}
			}
		}
	}

	// Overlay next-hop tables (BFS per head over the overlay).
	for _, dstHead := range heads {
		parent := bfsParentsWithin(overlay, dstHead, nil)
		for _, srcHead := range heads {
			if srcHead == dstHead || parent[srcHead] < 0 {
				continue
			}
			if h.overlayNext[srcHead] == nil {
				h.overlayNext[srcHead] = make(map[int]int)
			}
			h.overlayNext[srcHead][dstHead] = parent[srcHead]
		}
	}
	return h, nil
}

// bfsParentsWithin returns, for each node, its BFS parent toward root
// within the member set (every node when member is nil): -1 if
// unreachable, root's parent is itself.
func bfsParentsWithin(g *topology.Graph, root int, member []bool) []int {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	if member != nil && !member[root] {
		return parent
	}
	parent[root] = root
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if (member == nil || member[w]) && parent[w] < 0 {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return parent
}

// Route returns the hop sequence from src to dst: intra-cluster directly,
// otherwise along the cluster overlay crossing one gateway edge per
// cluster boundary.
func (h *refTable) Route(src, dst int) ([]int, error) {
	n := h.g.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("routing: endpoints (%d, %d) out of range", src, dst)
	}
	if h.comp[src] != h.comp[dst] {
		return nil, ErrUnreachable
	}
	if h.head[src] == h.head[dst] {
		return h.intraRoute(src, dst)
	}
	path := []int{src}
	cur := src
	for h.head[cur] != h.head[dst] {
		curHead := h.head[cur]
		nextHead, ok := h.overlayNext[curHead][h.head[dst]]
		if !ok {
			return nil, ErrUnreachable
		}
		gw, ok := h.gateway[curHead][nextHead]
		if !ok {
			return nil, ErrUnreachable
		}
		// Walk inside the current cluster to the gateway's near end, then
		// cross the border edge.
		leg, err := h.intraRoute(cur, gw[0])
		if err != nil {
			return nil, err
		}
		path = append(path, leg[1:]...)
		path = append(path, gw[1])
		cur = gw[1]
		if len(path) > 4*n {
			return nil, fmt.Errorf("routing: hierarchical loop between %d and %d", src, dst)
		}
	}
	leg, err := h.intraRoute(cur, dst)
	if err != nil {
		return nil, err
	}
	return append(path, leg[1:]...), nil
}

// NextHop returns the single next hop a packet at cur takes toward dst —
// the per-packet primitive the traffic data plane forwards with. It is
// allocation-free: a handful of map lookups against the prebuilt tables.
// dst == cur returns cur. ErrUnreachable follows the same rules as Route:
// always for cross-partition pairs, and whenever the hierarchy has no
// entry (possible mid-convergence).
func (h *refTable) NextHop(cur, dst int) (int, error) {
	n := h.g.N()
	if cur < 0 || cur >= n || dst < 0 || dst >= n {
		return -1, fmt.Errorf("routing: endpoints (%d, %d) out of range", cur, dst)
	}
	if cur == dst {
		return cur, nil
	}
	if h.comp[cur] != h.comp[dst] {
		return -1, ErrUnreachable
	}
	if h.head[cur] == h.head[dst] {
		nxt, ok := h.intra[cur][dst]
		if !ok {
			return -1, ErrUnreachable
		}
		return nxt, nil
	}
	curHead := h.head[cur]
	nextHead, ok := h.overlayNext[curHead][h.head[dst]]
	if !ok {
		return -1, ErrUnreachable
	}
	gw, ok := h.gateway[curHead][nextHead]
	if !ok {
		return -1, ErrUnreachable
	}
	if cur == gw[0] {
		return gw[1], nil // cross the border edge
	}
	nxt, ok := h.intra[cur][gw[0]]
	if !ok {
		return -1, ErrUnreachable
	}
	return nxt, nil
}

// intraRoute walks the intra-cluster table.
func (h *refTable) intraRoute(src, dst int) ([]int, error) {
	path := []int{src}
	for cur := src; cur != dst; {
		nxt, ok := h.intra[cur][dst]
		if !ok {
			return nil, ErrUnreachable
		}
		cur = nxt
		path = append(path, cur)
		if len(path) > h.g.N() {
			return nil, fmt.Errorf("routing: intra-cluster loop between %d and %d", src, dst)
		}
	}
	return path, nil
}
