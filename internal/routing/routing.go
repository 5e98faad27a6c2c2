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
// adjacency and (per graph version) the component labels. Everything the
// skeleton knows about one node — component, cluster, rank in the cluster
// and the offset of the tree toward it — is one packed 16-byte record
// (nodeRec), so a hop loads one record per endpoint instead of four
// parallel arrays, and a filled tree is indexed straight off the record.
// The entries themselves are breadth-first trees: the intra-cluster next
// hops toward a target node, and the overlay next hops toward a destination
// cluster. Each is filled the first time NextHop, Route or StatePerNode
// asks for it, by a FIFO search from that target over sorted adjacency, so
// an epoch costs what its packets touch. A tree depends only on its root,
// the adjacency order and the queue discipline, never on when it is built,
// so every answer is the one a table holding all trees would give; that
// all-trees builder is kept in the tests as the reference. An overlay row
// keeps an index into the overlay, not the gateway pair itself: a row per
// destination cluster at twice the width cost the dataplane workload ~9 MB
// of peak RSS for a ~1.1× faster NextHop.
package routing

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
	g       *topology.Graph
	version uint64 // g.Version() when the component labels were taken

	// rec is the per-node skeleton, one packed record per node (nodeRec).
	rec []nodeRec

	// The per-cluster skeleton. Clusters are numbered in ascending order of
	// their label (the Head value their members share).
	mStart  []int32 // members[mStart[c]:mStart[c+1]] is cluster c, ascending
	members []int32
	isHead  []bool        // per cluster: its label node is its own Parent
	ovStart []int32       // ov[ovStart[c]:ovStart[c+1]] is c's overlay adjacency
	ov      []overlayEdge // ascending by to within a cluster

	// Demand-filled trees, emptied by Reset. The tree toward node t is
	// trees[rec[t].tree:] and holds, by rank, the next hop toward t of each
	// member of t's cluster (-1: not joined to t inside the cluster). The
	// row toward cluster d holds, per cluster, the index in ov of its edge
	// toward d (-1: none).
	trees  []int32
	rowOff []int // per cluster: offset of its row in rows, -1 until asked
	rows   []int32

	byLabel, perCl, queue []int32 // Reset and search scratch
	path                  []int   // Route scratch
}

// nodeRec is one node's share of the skeleton. comp labels the connected
// components of the true topology: routing between different components
// fails with ErrUnreachable immediately, regardless of how scrambled a
// mid-convergence assignment is (a transient head choice must never turn
// "unreachable" into a detour). It is kept across Resets while the graph's
// Version holds; the other three fields are rebuilt by every Reset.
type nodeRec struct {
	comp int32 // connected component
	cl   int32 // cluster
	rank int32 // position in its cluster's member list
	tree int32 // offset of the tree toward this node in trees, -1 until asked
}

// errTreesFull is returned when a new tree would start past the largest
// offset a nodeRec holds. Trees total at most the sum of squared cluster
// sizes, so it takes a cluster of ~46 000 nodes whose trees are all asked
// for.
var errTreesFull = errors.New("routing: next-hop trees outgrew int32 offsets")

// overlayEdge is one directed edge of the cluster overlay with its gateway:
// the border edge (u in this cluster, v in cluster to) used to cross.
type overlayEdge struct{ to, u, v int32 }

// BuildHierarchical returns a new table over the assignment.
func BuildHierarchical(g *topology.Graph, a *cluster.Assignment) (*Hierarchical, error) {
	h := new(Hierarchical)
	if err := h.Reset(g, a); err != nil {
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
// component labels are kept while g and its Version are those of the
// previous Reset.
func (h *Hierarchical) Reset(g *topology.Graph, a *cluster.Assignment) error {
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
	// Resizing keeps the records while n is unchanged, so the component
	// labels survive unless the topology moved.
	relabel := g != h.g || g.Version() != h.version || len(h.rec) != n
	h.rec = sized(h.rec, n)
	if relabel {
		h.g, h.version = g, g.Version()
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

	h.members = sized(h.members, n)
	perCl := extend(h.perCl[:0], clusters, 0) // members placed so far
	h.perCl = perCl
	for u, l := range a.Head {
		c := byLabel[l]
		r := &h.rec[u]
		r.cl, r.rank, r.tree = c, perCl[c], -1
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
				if d := h.rec[v].cl; d != c && perCl[d] != c+1 {
					perCl[d] = c + 1
					h.ov = append(h.ov, overlayEdge{to: d, u: u, v: int32(v)})
				}
			}
		}
		slices.SortFunc(h.ov[first:], func(x, y overlayEdge) int { return cmp.Compare(x.to, y.to) })
	}
	h.ovStart = append(h.ovStart, int32(len(h.ov)))

	h.trees = h.trees[:0]
	h.rowOff, h.rows = extend(h.rowOff[:0], clusters, -1), h.rows[:0]
	return nil
}

// labelComponents labels the connected components of g into rec.
func (h *Hierarchical) labelComponents() {
	rec := h.rec
	for i := range rec {
		rec[i].comp = -1
	}
	next := int32(0)
	for s := range rec {
		if rec[s].comp >= 0 {
			continue
		}
		rec[s].comp = next
		q := append(h.queue[:0], int32(s))
		for i := 0; i < len(q); i++ {
			for _, w := range h.g.Neighbors(int(q[i])) {
				if rec[w].comp < 0 {
					rec[w].comp = next
					q = append(q, int32(w))
				}
			}
		}
		h.queue = q
		next++
	}
}

// treeOf returns the offset in trees of the next-hop tree toward t,
// filling it on first use by a breadth-first search from t restricted to
// t's cluster.
func (h *Hierarchical) treeOf(t int) (int32, error) {
	r := &h.rec[t]
	if r.tree >= 0 {
		return r.tree, nil
	}
	off := len(h.trees)
	if off > math.MaxInt32 {
		return -1, errTreesFull
	}
	c := r.cl
	r.tree = int32(off)
	h.trees = extend(h.trees, int(h.mStart[c+1]-h.mStart[c]), -1)
	tree := h.trees[off:]
	tree[r.rank] = int32(t)
	q := append(h.queue[:0], int32(t))
	for i := 0; i < len(q); i++ {
		for _, w := range h.g.Neighbors(int(q[i])) {
			if rw := &h.rec[w]; rw.cl == c && tree[rw.rank] < 0 {
				tree[rw.rank] = q[i]
				q = append(q, int32(w))
			}
		}
	}
	h.queue = q
	return int32(off), nil
}

// rowOf returns the offset in rows of the overlay row toward cluster d,
// filling it on first use by a breadth-first search from d over the
// overlay. A cluster reached from v stores its own edge back to v, which
// carries the gateway it crosses by.
func (h *Hierarchical) rowOf(d int32) int {
	off := h.rowOff[d]
	if off >= 0 {
		return off
	}
	off = len(h.rows)
	h.rowOff[d] = off
	h.rows = extend(h.rows, len(h.isHead), -1)
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
	return off
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
	n := len(h.rec)
	if cur < 0 || cur >= n || dst < 0 || dst >= n {
		return -1, rangeErr(cur, dst)
	}
	if cur == dst {
		return cur, nil
	}
	rc, rd := h.rec[cur], h.rec[dst]
	if rc.comp != rd.comp {
		return -1, ErrUnreachable
	}
	target, off := dst, rd.tree
	if c, d := rc.cl, rd.cl; c != d {
		if !h.isHead[c] || !h.isHead[d] {
			return -1, ErrUnreachable
		}
		e := h.rows[h.rowOf(d)+int(c)]
		if e < 0 {
			return -1, ErrUnreachable
		}
		gw := h.ov[e]
		if cur == int(gw.u) {
			return int(gw.v), nil // cross the border edge
		}
		target, off = int(gw.u), h.rec[gw.u].tree
	}
	if off < 0 {
		var err error
		if off, err = h.treeOf(target); err != nil {
			return -1, err
		}
	}
	next := h.trees[int(off)+int(rc.rank)]
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
	if n := len(h.rec); src < 0 || src >= n || dst < 0 || dst >= n {
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
// such group is enough to size it. It fails only when the trees it fills
// outgrow their offsets (errTreesFull).
func (h *Hierarchical) StatePerNode() (float64, error) {
	total := len(h.ov)
	seen := make([]bool, len(h.rec))
	for t := range h.rec {
		if seen[t] {
			continue
		}
		off, err := h.treeOf(t)
		if err != nil {
			return 0, err
		}
		c := h.rec[t].cl
		first, size := int(h.mStart[c]), int(h.mStart[c+1]-h.mStart[c])
		group := 0
		for r, next := range h.trees[int(off) : int(off)+size] {
			if next >= 0 {
				seen[h.members[first+r]] = true
				group++
			}
		}
		total += group * (group - 1)
	}
	clusters := len(h.isHead)
	seen = make([]bool, clusters)
	for d := range h.isHead {
		if seen[d] {
			continue
		}
		heads := 0
		off := h.rowOf(int32(d))
		for s, e := range h.rows[off : off+clusters] {
			if e >= 0 || s == d {
				seen[s] = true
				if h.isHead[s] {
					heads++
				}
			}
		}
		total += heads * (heads - 1)
	}
	return float64(total) / float64(len(h.rec)), nil
}
