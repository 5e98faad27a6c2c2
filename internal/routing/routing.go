// Package routing implements cluster-based hierarchical routing over the
// self-stabilizing clustering, the architecture whose contrast with flat
// proactive routing motivates the paper (Sections 1-2): a node keeps
// routes only within its cluster plus a summary of the cluster overlay,
// where a flat table keeps one entry per other node. The experiment
// layer measures that contrast — state per node O(cluster) + O(degree of
// the cluster overlay) against n−1, at a small path-stretch cost over
// shortest paths, which the topology's BFS distances give directly.
//
// The hierarchical table models that per-node state without materialising
// it. Reset builds, in O(N+E), only a skeleton of the clustering: cluster
// numbering and member lists in ascending-label order, the lexicographically
// smallest gateway edge per adjacent cluster pair, the label-sorted overlay
// adjacency and (per topology epoch) the component labels. The entries
// themselves are breadth-first trees: the intra-cluster next hops toward a
// target node, and the overlay next hops toward a destination cluster. Each
// is filled the first time NextHop, Route or StatePerNode asks for it, by a
// FIFO search from that target over sorted adjacency, so an epoch costs what
// its packets touch. A tree depends only on its root, the adjacency order
// and the queue discipline, never on when it is built, so every answer is
// the one a table holding all trees would give; that all-trees builder is
// kept in the tests as the reference.
package routing

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"selfstab/internal/cluster"
	"selfstab/internal/topology"
)

// ErrUnreachable is returned when no route exists between two nodes.
var ErrUnreachable = errors.New("routing: destination unreachable")

// Hierarchical routes over a clustering: each node keeps an intra-cluster
// table (next hop toward every same-cluster member) plus one default
// route; cluster-heads additionally keep one gateway entry per adjacent
// cluster of the overlay. The package comment says what Reset builds and
// what is filled on demand. Queries fill trees, so a table is not safe for
// concurrent use. Every slice keeps its capacity across Resets.
type Hierarchical struct {
	g         *topology.Graph
	topoEpoch uint64

	// comp labels connected components of the true topology: routing
	// between different components fails with ErrUnreachable immediately,
	// regardless of how scrambled a mid-convergence assignment is (a
	// transient head choice must never turn "unreachable" into a detour).
	comp []int32

	// The skeleton. Clusters are numbered in ascending order of their label
	// (the Head value their members share).
	cl      []int32 // cluster of each node
	rank    []int32 // position of each node in its cluster's member list
	mStart  []int32 // members[mStart[c]:mStart[c+1]] is cluster c, ascending
	members []int32
	isHead  []bool        // per cluster: its label node is its own Parent
	ovStart []int32       // ov[ovStart[c]:ovStart[c+1]] is c's overlay adjacency
	ov      []overlayEdge // ascending by to within a cluster

	// Demand-filled trees, emptied by Reset. The tree toward node t holds,
	// by rank, the next hop toward t of each member of t's cluster (-1: not
	// joined to t inside the cluster). The row toward cluster d holds, per
	// cluster, the index in ov of its edge toward d (-1: none).
	treeOff []int // per node: offset of its tree in trees, -1 until asked
	trees   []int32
	rowOff  []int // per cluster: offset of its row in rows, -1 until asked
	rows    []int32

	byLabel, perCl, queue []int32 // Reset and search scratch
	path                  []int   // Route scratch
}

// overlayEdge is one directed edge of the cluster overlay with its gateway:
// the border edge (u in this cluster, v in cluster to) used to cross.
type overlayEdge struct{ to, u, v int32 }

// BuildHierarchical returns a new table over the assignment.
func BuildHierarchical(g *topology.Graph, a *cluster.Assignment) (*Hierarchical, error) {
	h := new(Hierarchical)
	if err := h.Reset(g, a, 0); err != nil {
		return nil, err
	}
	return h, nil
}

// sized returns s with length n, reusing its capacity; the contents are
// unspecified.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// extend appends n copies of v to s.
func extend[T any](s []T, n int, v T) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	for i := len(s) - n; i < len(s); i++ {
		s[i] = v
	}
	return s
}

// Reset points the table at an assignment over g and rebuilds the skeleton,
// dropping every filled tree. It reads a only during the call. The
// component labels are kept while g and topoEpoch are those of the previous
// Reset: the caller advances topoEpoch whenever g's edges changed.
func (h *Hierarchical) Reset(g *topology.Graph, a *cluster.Assignment, topoEpoch uint64) error {
	n := g.N()
	if len(a.Head) != n || len(a.Parent) != n {
		return fmt.Errorf("routing: assignment for %d nodes, graph has %d", len(a.Head), n)
	}
	byLabel := extend(h.byLabel[:0], n, 0) // members per label, then cluster per label
	h.byLabel = byLabel
	for u, l := range a.Head {
		if l < 0 || l >= n {
			return fmt.Errorf("routing: node %d has head %d, outside [0, %d)", u, l, n)
		}
		byLabel[l]++
	}
	if g != h.g || topoEpoch != h.topoEpoch || len(h.comp) != n {
		h.g, h.topoEpoch = g, topoEpoch
		h.labelComponents()
	}

	h.mStart, h.isHead = h.mStart[:0], h.isHead[:0]
	at := int32(0)
	for l, size := range byLabel {
		if size == 0 {
			continue
		}
		byLabel[l] = int32(len(h.isHead))
		h.mStart = append(h.mStart, at)
		h.isHead = append(h.isHead, a.Parent[l] == l)
		at += size
	}
	h.mStart = append(h.mStart, at)
	clusters := len(h.isHead)

	h.cl, h.rank, h.members = sized(h.cl, n), sized(h.rank, n), sized(h.members, n)
	perCl := extend(h.perCl[:0], clusters, 0) // members placed so far
	h.perCl = perCl
	for u, l := range a.Head {
		c := byLabel[l]
		h.cl[u], h.rank[u] = c, perCl[c]
		h.members[h.mStart[c]+perCl[c]] = int32(u)
		perCl[c]++
	}

	// Overlay: clusters are adjacent when they share a border edge. Members
	// and their neighbours are visited in ascending order, so the first
	// border edge seen per cluster pair is the lexicographically smallest.
	clear(perCl) // perCl[d] == c+1: edge c→d already recorded
	h.ovStart, h.ov = h.ovStart[:0], h.ov[:0]
	for c := int32(0); int(c) < clusters; c++ {
		first := len(h.ov)
		h.ovStart = append(h.ovStart, int32(first))
		for _, u := range h.members[h.mStart[c]:h.mStart[c+1]] {
			for _, v := range g.Neighbors(int(u)) {
				if d := h.cl[v]; d != c && perCl[d] != c+1 {
					perCl[d] = c + 1
					h.ov = append(h.ov, overlayEdge{to: d, u: u, v: int32(v)})
				}
			}
		}
		slices.SortFunc(h.ov[first:], func(x, y overlayEdge) int { return cmp.Compare(x.to, y.to) })
	}
	h.ovStart = append(h.ovStart, int32(len(h.ov)))

	h.treeOff, h.trees = extend(h.treeOff[:0], n, -1), h.trees[:0]
	h.rowOff, h.rows = extend(h.rowOff[:0], clusters, -1), h.rows[:0]
	return nil
}

// labelComponents labels the connected components of g.
func (h *Hierarchical) labelComponents() {
	h.comp = extend(h.comp[:0], h.g.N(), -1)
	next := int32(0)
	for s := range h.comp {
		if h.comp[s] >= 0 {
			continue
		}
		h.comp[s] = next
		q := append(h.queue[:0], int32(s))
		for i := 0; i < len(q); i++ {
			for _, w := range h.g.Neighbors(int(q[i])) {
				if h.comp[w] < 0 {
					h.comp[w] = next
					q = append(q, int32(w))
				}
			}
		}
		h.queue = q
		next++
	}
}

// tree returns the next-hop tree toward t, filling it on first use by a
// breadth-first search from t restricted to t's cluster.
func (h *Hierarchical) tree(t int) []int32 {
	c := h.cl[t]
	size := int(h.mStart[c+1] - h.mStart[c])
	off := h.treeOff[t]
	if off < 0 {
		off = len(h.trees)
		h.treeOff[t] = off
		h.trees = extend(h.trees, size, -1)
		tree := h.trees[off:]
		tree[h.rank[t]] = int32(t)
		q := append(h.queue[:0], int32(t))
		for i := 0; i < len(q); i++ {
			for _, w := range h.g.Neighbors(int(q[i])) {
				if h.cl[w] == c && tree[h.rank[w]] < 0 {
					tree[h.rank[w]] = q[i]
					q = append(q, int32(w))
				}
			}
		}
		h.queue = q
	}
	return h.trees[off : off+size]
}

// row returns the overlay row toward cluster d, filling it on first use by
// a breadth-first search from d over the overlay. A cluster reached from v
// stores its own edge back to v, which carries the gateway it crosses by.
func (h *Hierarchical) row(d int32) []int32 {
	clusters := len(h.isHead)
	off := h.rowOff[d]
	if off < 0 {
		off = len(h.rows)
		h.rowOff[d] = off
		h.rows = extend(h.rows, clusters, -1)
		row := h.rows[off:]
		q := append(h.queue[:0], d)
		for i := 0; i < len(q); i++ {
			v := q[i]
			for _, e := range h.ov[h.ovStart[v]:h.ovStart[v+1]] {
				if s := e.to; s != d && row[s] < 0 {
					back, _ := slices.BinarySearchFunc(h.ov[h.ovStart[s]:h.ovStart[s+1]], v,
						func(x overlayEdge, to int32) int { return cmp.Compare(x.to, to) })
					row[s] = h.ovStart[s] + int32(back)
					q = append(q, s)
				}
			}
		}
		h.queue = q
	}
	return h.rows[off : off+clusters]
}

// NextHop returns the single next hop a packet at cur takes toward dst —
// the per-packet primitive the traffic data plane forwards with: along the
// tree toward dst inside dst's cluster, otherwise along the tree toward the
// gateway of the overlay edge toward dst's cluster, and across it. It
// allocates only when it fills a tree. dst == cur returns cur.
// ErrUnreachable is returned for cross-partition pairs always, and whenever
// the hierarchy has no entry: no path inside the cluster or on the overlay,
// or (mid-convergence) a cluster whose label node is not its own parent, so
// that no head holds its overlay entries.
//
//selfstab:hotpath
func (h *Hierarchical) NextHop(cur, dst int) (int, error) {
	n := len(h.cl)
	if cur < 0 || cur >= n || dst < 0 || dst >= n {
		return -1, rangeErr(cur, dst)
	}
	if cur == dst {
		return cur, nil
	}
	if h.comp[cur] != h.comp[dst] {
		return -1, ErrUnreachable
	}
	target := dst
	if c, d := h.cl[cur], h.cl[dst]; c != d {
		if !h.isHead[c] || !h.isHead[d] {
			return -1, ErrUnreachable
		}
		e := h.row(d)[c]
		if e < 0 {
			return -1, ErrUnreachable
		}
		gw := h.ov[e]
		if cur == int(gw.u) {
			return int(gw.v), nil // cross the border edge
		}
		target = int(gw.u)
	}
	next := h.tree(target)[h.rank[cur]]
	if next < 0 {
		return -1, ErrUnreachable
	}
	return int(next), nil
}

func rangeErr(a, b int) error {
	return fmt.Errorf("routing: endpoints (%d, %d) out of range", a, b)
}

// Route returns the hop sequence from src to dst: the walk NextHop takes,
// intra-cluster directly, otherwise along the cluster overlay crossing one
// gateway edge per cluster boundary. Every hop strictly shortens the
// remaining tree or overlay distance, so the walk cannot loop.
func (h *Hierarchical) Route(src, dst int) ([]int, error) {
	if n := len(h.cl); src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, rangeErr(src, dst)
	}
	path := append(h.path[:0], src)
	for cur := src; cur != dst; {
		next, err := h.NextHop(cur, dst)
		if err != nil {
			return nil, err
		}
		cur = next
		path = append(path, cur)
	}
	h.path = path
	return slices.Clone(path), nil
}

// StatePerNode returns the mean number of routing entries per node: the
// intra-cluster table plus, for heads, the overlay and gateway entries.
// This is the quantity the paper's scalability argument is about. Entries
// are counted, not stored: nodes joined inside a cluster hold one entry per
// ordered pair, as do heads joined on the overlay, and one tree or row per
// such group is enough to size it.
func (h *Hierarchical) StatePerNode() float64 {
	total := len(h.ov)
	seen := make([]bool, len(h.cl))
	for t := range h.cl {
		if seen[t] {
			continue
		}
		group, first := 0, h.mStart[h.cl[t]]
		for r, next := range h.tree(t) {
			if next >= 0 {
				seen[h.members[int(first)+r]] = true
				group++
			}
		}
		total += group * (group - 1)
	}
	seen = make([]bool, len(h.isHead))
	for d := range h.isHead {
		if seen[d] {
			continue
		}
		heads := 0
		for s, e := range h.row(int32(d)) {
			if e >= 0 || s == d {
				seen[s] = true
				if h.isHead[s] {
					heads++
				}
			}
		}
		total += heads * (heads - 1)
	}
	return float64(total) / float64(len(h.cl))
}
