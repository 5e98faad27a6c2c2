// Package topology provides the graph substrate of the simulator: unit-disk
// graphs built from node positions, k-hop neighborhoods and connected
// components. All node references are dense indices 0..N-1;
// application-level identifiers live one layer up.
package topology

import (
	"fmt"
	"sort"

	"selfstab/internal/geom"
	"selfstab/internal/slot"
)

// Graph is an undirected graph over nodes 0..N-1 with sorted adjacency
// lists. The zero value is an empty graph; use New to size one.
type Graph struct {
	adj [][]int
	// version advances whenever an adjacency list or the node numbering
	// changes (see Version).
	version uint64
	// stamp[u] is the version that the last change to u's adjacency
	// produced (0: none since the node's row was built), and renumbered
	// the version Compact last produced. See TouchedSince.
	stamp      []uint64
	renumbered uint64
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]int, n), stamp: make([]uint64, n)}
}

// FromPoints builds the unit-disk graph over pts: nodes u != v are adjacent
// iff their Euclidean distance is at most r. This is the paper's radio
// model — communication is bidirectional by construction (q in Np iff
// p in Nq). Construction uses the dense uniform grid of GridIndex, so the
// paper's lambda = 1000 deployments build in O(n) expected time; callers
// that rebuild the topology every mobility step should keep the GridIndex
// itself and use its incremental Update instead.
func FromPoints(pts []geom.Point, r float64) *Graph {
	if r <= 0 || len(pts) < 2 {
		return New(len(pts))
	}
	return NewGridIndex(pts, r).Graph()
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// Version returns a counter that advances whenever an adjacency list or
// the node numbering changes — AddNode, AddEdge, RemoveNode, Compact and
// every GridIndex operation that creates or drops an edge — and stays put
// otherwise. Structures derived from the graph (component labels, flat
// hop distances) are valid exactly while it is unchanged.
func (g *Graph) Version() uint64 { return g.version }

// touch records that u's adjacency changes in the operation under way.
// Every operation that touches a node advances the version once it is
// done, so the stamp is the version the operation leaves behind.
func (g *Graph) touch(u int) { g.stamp[u] = g.version + 1 }

// TouchedSince appends to dst every node whose adjacency changed after
// the graph stood at version v — both endpoints of every edge created or
// removed since, and every node added since — in ascending order, and
// reports true. It reports false, appending nothing, when Compact has
// renumbered the nodes since v: indices taken at v then name other nodes.
// It scans one stamp per node, so a caller that keeps a structure derived
// at version v in step with the graph pays O(N) for the scan plus its own
// O(change) repair instead of a rebuild.
func (g *Graph) TouchedSince(v uint64, dst []int32) ([]int32, bool) {
	if g.renumbered > v {
		return dst, false
	}
	for u, s := range g.stamp {
		if s > v {
			dst = append(dst, int32(u))
		}
	}
	return dst, true
}

// AddNode appends a new isolated vertex and returns its index. Indices of
// existing nodes are unaffected — the graph only ever grows at the end, so
// dense per-node arrays elsewhere stay aligned under churn.
//
//selfstab:testref runtime's churn tests and TestGraphVersion grow hand-built graphs node by node; GridIndex.Append grows its graph in place
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	g.stamp = append(g.stamp, 0)
	g.touch(len(g.adj) - 1)
	g.version++
	return len(g.adj) - 1
}

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicates are
// rejected with an error so test fixtures fail loudly on typos.
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("self-loop on node %d", u)
	}
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("edge (%d, %d) out of range [0, %d)", u, v, len(g.adj))
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("duplicate edge (%d, %d)", u, v)
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.touch(u)
	g.touch(v)
	g.version++
	return nil
}

func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	xs := g.adj[u]
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

// Neighbors returns the sorted adjacency list of u. The returned slice is
// shared with the graph: callers must not modify it.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns |N(u)|.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns delta, the maximum degree over all nodes (0 for an
// empty graph). The paper assumes a known constant bound delta on degree;
// experiments use the realized maximum.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// Components returns a component label per node (labels are 0-based and
// dense) and the number of components.
func (g *Graph) Components() ([]int, int) {
	comp := make([]int, len(g.adj))
	for i := range comp {
		comp[i] = -1
	}
	n := 0
	for s := range g.adj {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = n
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if comp[w] < 0 {
					comp[w] = n
					queue = append(queue, w)
				}
			}
		}
		n++
	}
	return comp, n
}

// ClosedNeighborhoodLinks returns, for node u, the number of edges
// e = (v, w) with w in {u} ∪ N(u) and v in N(u) — the numerator of the
// paper's density metric (Definition 1). Equivalently: deg(u) plus the
// number of edges between two neighbors of u.
//
// The neighbor-neighbor count is a sorted-list intersection: for each
// v in N(u), |adj(v) ∩ {w in N(u) : w > v}| by merge scan over the two
// sorted lists — O(deg(u) × (deg(u) + deg(v))) total instead of the
// O(deg(u)² × log deg) of a per-pair binary-search membership probe.
func (g *Graph) ClosedNeighborhoodLinks(u int) int {
	nbrs := g.adj[u]
	count := len(nbrs) // edges from u to each neighbor
	for i, v := range nbrs {
		above := nbrs[i+1:] // only w > v: each neighbor edge counted once
		va := g.adj[v]
		// Skip adj(v) entries <= v fast; both lists ascend from here.
		ai := sort.SearchInts(va, v+1)
		bi := 0
		for ai < len(va) && bi < len(above) {
			switch {
			case va[ai] == above[bi]:
				count++
				ai++
				bi++
			case va[ai] < above[bi]:
				ai++
			default:
				bi++
			}
		}
	}
	return count
}

// Compact drops the slots r drops and renumbers the survivors. Every
// dropped slot must already be isolated, which holds by construction for
// dead-node recycling, where departed nodes had their edges detached at
// death. Adjacency rows keep their backing arrays and their sorted order,
// because the remap is monotone.
func (g *Graph) Compact(r slot.Remap) error {
	if err := r.Check("topology", len(g.adj)); err != nil {
		return err
	}
	for old, row := range g.adj {
		if r.Of(old) >= 0 {
			g.adj[old] = slot.Renumber(r, row)
		} else if len(row) != 0 {
			return fmt.Errorf("topology: compacting node %d with %d live edges", old, len(row))
		}
	}
	g.adj = slot.Apply(r, g.adj)
	g.stamp = slot.Apply(r, g.stamp)
	g.version++
	g.renumbered = g.version
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for i, a := range g.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	return c
}

// RemoveNode detaches u from all its neighbors (u stays as an isolated
// vertex so indices remain stable).
//
//selfstab:testref tests in runtime, routing, cluster and metric detach a node by hand to build the reference topology they compare against
func (g *Graph) RemoveNode(u int) {
	if u < 0 || u >= len(g.adj) {
		return
	}
	for _, v := range g.adj[u] {
		g.adj[v] = removeSorted(g.adj[v], u)
		g.touch(v)
	}
	g.adj[u] = nil
	g.touch(u)
	g.version++
}

func removeSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return append(xs[:i], xs[i+1:]...)
	}
	return xs
}
