// Package routing implements cluster-based hierarchical routing over the
// self-stabilizing clustering, the architecture whose contrast with flat
// proactive routing motivates the paper (Sections 1-2): a node keeps
// routes only within its cluster plus a summary of the cluster overlay,
// where a flat table keeps one entry per other node. The traffic data
// plane prices the hierarchy by what it costs packets: path stretch over
// the shortest path (MeanStretch) and the share of forwarding that heads
// carry (HeadLoadShare).
//
// The hierarchical table models that per-node state without materialising
// it. It keeps a skeleton of the clustering, keyed by each cluster's label
// (the Head value its members share): the member list in ascending order,
// the lexicographically smallest gateway edge toward each adjacent
// cluster, and the component labels of the topology. Each cluster also
// holds a slot while it has members, and the overlay and the records name
// clusters by slot. Everything the skeleton knows about one node —
// component, cluster slot, rank in the cluster and the offset of the tree
// toward it — is one packed 16-byte record (nodeRec), so a hop loads one
// record per endpoint, and a filled tree is indexed straight off the
// record.
// The entries themselves are breadth-first trees: the intra-cluster next
// hops toward a target node, and the overlay next hops toward a destination
// cluster. A tree is filled the first time NextHop or Route asks for it,
// by a FIFO search from its target over sorted adjacency; an overlay row
// is filled by such a search from its destination cluster only as far as
// the clusters asked about, and resumed when a query needs more. So an
// epoch costs what its packets touch. A tree depends only on its root,
// the members and edges of its cluster, the adjacency order and the queue
// discipline, never on when it is built, so every answer is the one a
// table holding all trees would give; that all-trees builder is kept in
// the tests as the reference. An overlay row keeps an index into the
// overlay, not the gateway pair itself: a row per destination cluster at
// twice the width cost the dataplane workload ~9 MB of peak RSS for a
// ~1.1× faster NextHop.
//
// Reset builds the skeleton in O(N+E). Repair runs Reset's own passes
// over the clusters the change reaches: given the nodes whose head or
// parent moved, and reading from the graph the nodes whose adjacency
// moved (topology.Graph.TouchedSince), it rebuilds only the clusters
// those nodes belong to or border. A cluster whose members and internal
// edges are untouched keeps its member list, its slot and its filled
// trees; every cluster the change reaches lists its gateways again by the
// pass Reset uses. Component labels are repaired from the changed edges.
// Each removed edge is deleted from the table's adjacency copy, which is
// the old graph, and replayed by a search over the copy from both of its
// ends that stops when they meet or when one side runs out, which is then
// a component of its own — every piece of a split holds an end of a
// removed edge; then an added edge between two components relabels the
// smaller one. The flat overlay is rebuilt and the overlay rows emptied
// on every Repair that changes a cluster, in O(slots + overlay edges):
// under churn the overlay changes nearly every epoch. Repair falls back
// to Reset for another graph, after Compact renumbered the nodes, and
// when more than a third of the nodes changed, past which a repair
// measures slower than the build (see Repair). Both leave the table
// answering exactly as a fresh Reset from the same graph and assignment.
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
// cluster of the overlay. The package comment says what Reset and Repair
// build and what is filled on demand. Queries fill trees, so a table is
// not safe for concurrent use. Every slice keeps its capacity across
// Resets and Repairs.
type Hierarchical struct {
	g       *topology.Graph
	version uint64 // g.Version() at the last Reset or Repair

	// rec is the per-node skeleton, one packed record per node (nodeRec).
	rec []nodeRec

	// The per-cluster skeleton. A cluster holds a slot while it has
	// members, so a Repair numbers only the clusters it creates; the
	// records, the overlay and the rows name clusters by slot. labels
	// lists the labels in use, ascending.
	slotOf   []int32     // per label: the cluster's slot, -1 for none
	labelOf  []int32     // per slot: the cluster's label, -1 for a free slot
	members  [][]int32   // per slot: the ascending member list
	border   [][]gateway // per slot: one per adjacent cluster, ascending by its label
	isHead   []bool      // per slot: the label node is its own Parent
	freeSlot []int32
	labels   []int32

	// The overlay: ov[ovStart[c]:ovStart[c+1]] is the adjacency of the
	// cluster in slot c, ascending by the label of the cluster it leads
	// to.
	ovStart []int32
	ov      []overlayEdge

	// Demand-filled entries. The tree toward node t is trees[rec[t].tree:]
	// and holds, by rank, the next hop toward t of each member of t's
	// cluster (-1: not joined to t inside the cluster); owners lists the
	// trees in fill order, so dropped ones (stale entries) can be packed
	// away. The row toward cluster d holds, per cluster, the index in ov
	// of its edge toward d (-1: none or not reached yet); rows are emptied
	// whenever the overlay changes.
	trees     []int32
	owners    []treeOwner
	stale     int // entries of trees no record points at
	liveTrees int // trees a record points at
	rowAt     []rowState
	rows      []int32

	// Component upkeep: each node's adjacency at the last Reset or Repair
	// (what Repair diffs against) and the size of each component label
	// (0: free for reuse).
	adj      [][]int32
	compSize []int32
	freeComp []int32

	// Repair scratch: changed edges, per-label dirt, the search marks and
	// queues.
	touched        []int32
	removed, added []edge
	dirt           []uint8
	dirty, born    []int32
	joins          []uint64 // joinKey of every node that joined a cluster
	mark           []uint32
	gen            uint32
	side           [2][]int32

	perCl, queue []int32 // build and search scratch

	// Reset's backing arrays for the member lists, adjacency copies and
	// gateway lists.
	memFlat, adjFlat []int32
	borderFlat       []gateway
	path             []int // Route scratch

	work Work
}

// nodeRec is one node's share of the skeleton. comp labels the connected
// components of the true topology: routing between different components
// fails with ErrUnreachable immediately, regardless of how scrambled a
// mid-convergence assignment is (a transient head choice must never turn
// "unreachable" into a detour). cl is the slot of the node's cluster.
type nodeRec struct {
	comp int32 // connected component
	cl   int32 // cluster slot
	rank int32 // position in its cluster's member list
	tree int32 // offset of the tree toward this node in trees, -1 until asked
}

// Work counts what a table has done since it was made: full builds
// (Reset, and Repairs that fell back to one), repairs, the filled trees
// repairs kept, the trees queries filled, and the nodes the component
// repair visited.
type Work struct {
	Builds, Repairs       int
	TreesKept, TreeFills  int
	ComponentNodesVisited int
}

// Work returns the table's work counters.
//
//selfstab:testref the live-table oracle asserts that repairs ran, that Compact forced full builds and that trees survived
func (h *Hierarchical) Work() Work { return h.work }

// Gateway is a kept border edge between two adjacent clusters: U in the
// cluster labelled From, V in the one labelled To.
type Gateway struct{ From, To, U, V int }

// Gateways returns every cluster's kept gateways, ascending by From and
// then by To: the overlay by label, whatever the slots.
//
//selfstab:testref the repair oracles compare the live table's gateways with a fresh Reset's
func (h *Hierarchical) Gateways() []Gateway {
	var out []Gateway
	for _, l := range h.labels {
		for _, gw := range h.border[h.slotOf[l]] {
			out = append(out, Gateway{int(l), int(gw.to), int(gw.u), int(gw.v)})
		}
	}
	return out
}

// Component returns the component label of node u: two nodes share one
// exactly when the graph joins them.
//
//selfstab:testref the component-label oracle compares the maintained labels with topology.Graph.Components
func (h *Hierarchical) Component(u int) int { return int(h.rec[u].comp) }

// errTreesFull is returned when a new tree would start past the largest
// offset a nodeRec holds. Trees total at most the sum of squared cluster
// sizes, so it takes a cluster of ~46 000 nodes whose trees are all asked
// for.
var errTreesFull = errors.New("routing: next-hop trees outgrew int32 offsets")

// overlayEdge is one directed edge of the cluster overlay with its gateway:
// the border edge (u in this cluster, v in the cluster in slot to) used to
// cross. rev is the index in ov of the reverse edge, from that cluster
// back.
type overlayEdge struct{ to, u, v, rev int32 }

// gateway is a cluster's kept border edge (u in the cluster, v in the
// cluster labelled to) toward one adjacent cluster.
type gateway struct{ to, u, v int32 }

// edge is a pair of node indices, u < v for an edge of the graph.
type edge struct{ u, v int32 }

// Per-label dirt a Repair collects.
const (
	dirtMembers uint8 = 1 << iota // a node joined or left: rebuild the member list
	dirtTrees                     // an internal edge changed: drop the filled trees
	dirtBorder                    // a member or neighbour changed: list the gateways again
)

// rowState is one cluster's overlay row: its offset in rows (-1 until
// asked) and its search's frontier, the clusters it has reached and not
// yet expanded, in FIFO order.
type rowState struct {
	off  int
	next []int32
}

// treeOwner is a filled tree: the node it leads to and its offset.
type treeOwner struct{ node, off int32 }

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

// grow extends every per-node array to n nodes; new records are unset
// and new lists empty.
func (h *Hierarchical) grow(n int) {
	old := len(h.rec)
	h.rec = slices.Grow(h.rec, n-old)[:n]
	h.dirt = extend(h.dirt, n-old, 0)
	h.mark = extend(h.mark, n-old, 0)
	h.slotOf = extend(h.slotOf, n-old, -1)
	h.adj = extend(h.adj, n-old, nil)
}

// Reset points the table at an assignment over g and builds the skeleton
// from scratch, dropping every filled tree. It reads a only during the
// call. The member lists, adjacency copies and gateway lists are laid out
// back to back in one array each, each list capped at its length, so that
// a later Repair that grows one list moves that list alone.
func (h *Hierarchical) Reset(g *topology.Graph, a *cluster.Assignment) error {
	n := g.N()
	if err := checkAssignment(g, a, 0); err != nil {
		return err
	}
	h.g, h.version = g, g.Version()
	h.work.Builds++
	h.rec, h.dirt = h.rec[:0], h.dirt[:0]
	h.mark, h.slotOf, h.gen = h.mark[:0], h.slotOf[:0], 0
	h.adj = h.adj[:0]
	h.grow(n)

	start := extend(h.perCl[:0], n+1, 0) // members of the labels below l
	h.perCl = start
	for _, l := range a.Head {
		start[l+1]++
	}
	for l := range n {
		start[l+1] += start[l]
	}
	// Slots go to the clusters in ascending label order.
	h.memFlat = sized(h.memFlat, n)
	h.labels, h.labelOf, h.isHead, h.freeSlot = h.labels[:0], h.labelOf[:0], h.isHead[:0], h.freeSlot[:0]
	h.members, h.border = h.members[:0], h.border[:0]
	for l := range n {
		if start[l+1] > start[l] {
			h.slotOf[l] = int32(len(h.labels))
			h.labels = append(h.labels, int32(l))
			h.isHead = append(h.isHead, a.Parent[l] == l)
			h.members = append(h.members, h.memFlat[start[l]:start[l]:start[l+1]])
		}
	}
	h.labelOf = append(h.labelOf, h.labels...)
	for u, l := range a.Head {
		c := h.slotOf[l]
		h.rec[u] = nodeRec{cl: c, rank: int32(len(h.members[c])), tree: -1}
		h.members[c] = append(h.members[c], int32(u))
	}

	// start[u] is where u's list begins; the next list ends it.
	for u := range n {
		start[u+1] = start[u] + int32(g.Degree(u))
	}
	h.adjFlat = sized(h.adjFlat, int(start[n]))
	for u := range n {
		h.adj[u] = appendInt32(h.adjFlat[start[u]:start[u]:start[u+1]], g.Neighbors(u))
	}
	h.borderFlat = h.borderFlat[:0]
	for c := range h.labels {
		start[c] = int32(len(h.borderFlat))
		h.borderFlat = h.appendGateways(int32(c), h.borderFlat)
	}
	start[len(h.labels)] = int32(len(h.borderFlat))
	for c := range h.labels {
		h.border = append(h.border, h.borderFlat[start[c]:start[c+1]:start[c+1]])
	}

	h.trees, h.owners, h.stale, h.liveTrees = h.trees[:0], h.owners[:0], 0, 0
	h.labelComponents()
	h.buildOverlay()
	return nil
}

// checkAssignment validates a for g: one head and parent per node, every
// head a node. Only the heads of nodes from..N-1 are range-checked; Repair
// passes the nodes it has not seen.
func checkAssignment(g *topology.Graph, a *cluster.Assignment, from int) error {
	n := g.N()
	if len(a.Head) != n || len(a.Parent) != n {
		return fmt.Errorf("routing: assignment for %d nodes, graph has %d", len(a.Head), n)
	}
	for u := from; u < n; u++ {
		if err := checkHead(a, u, n); err != nil {
			return err
		}
	}
	return nil
}

func checkHead(a *cluster.Assignment, u, n int) error {
	if l := a.Head[u]; l < 0 || l >= n {
		return fmt.Errorf("routing: node %d has head %d, outside [0, %d)", u, l, n)
	}
	return nil
}

func appendInt32(dst []int32, src []int) []int32 {
	for _, w := range src {
		dst = append(dst, int32(w))
	}
	return dst
}

// labelComponents labels the connected components of g into rec, and
// sizes them.
func (h *Hierarchical) labelComponents() {
	rec := h.rec
	for i := range rec {
		rec[i].comp = -1
	}
	h.compSize, h.freeComp = h.compSize[:0], h.freeComp[:0]
	for s := range rec {
		if rec[s].comp >= 0 {
			continue
		}
		label := int32(len(h.compSize))
		rec[s].comp = label
		q := append(h.queue[:0], int32(s))
		for i := 0; i < len(q); i++ {
			for _, w := range h.g.Neighbors(int(q[i])) {
				if rec[w].comp < 0 {
					rec[w].comp = label
					q = append(q, int32(w))
				}
			}
		}
		h.queue = q
		h.compSize = append(h.compSize, int32(len(q)))
	}
}

// appendGateways appends to dst the gateways of the cluster in slot c,
// ascending by the label they lead to, and returns dst. Members and their
// neighbours are visited in ascending order, so the first border edge
// seen per adjacent cluster is the lexicographically smallest.
func (h *Hierarchical) appendGateways(c int32, dst []gateway) []gateway {
	seen, from := h.nextGen(), len(dst)
	for _, u := range h.members[c] {
		for _, v := range h.g.Neighbors(int(u)) {
			if d := h.rec[v].cl; d != c && h.mark[d] != seen {
				h.mark[d] = seen
				dst = append(dst, gateway{to: h.labelOf[d], u: u, v: int32(v)})
			}
		}
	}
	slices.SortFunc(dst[from:], func(x, y gateway) int { return cmp.Compare(x.to, y.to) })
	return dst
}

// nextGen returns a fresh search mark; it and the value after it are
// carried by no node.
func (h *Hierarchical) nextGen() uint32 {
	if h.gen >= math.MaxUint32-2 {
		clear(h.mark)
		h.gen = 0
	}
	h.gen += 2
	return h.gen
}

// buildOverlay flattens the clusters' gateways into the overlay, by slot,
// with its reverse edges, and empties the overlay rows.
func (h *Hierarchical) buildOverlay() {
	slots := len(h.labelOf)
	h.ovStart, h.ov = sized(h.ovStart, slots+1), h.ov[:0]
	for c, l := range h.labelOf {
		h.ovStart[c] = int32(len(h.ov))
		if l < 0 {
			continue
		}
		for _, gw := range h.border[c] {
			h.ov = append(h.ov, overlayEdge{to: h.slotOf[gw.to], u: gw.u, v: gw.v})
		}
	}
	h.ovStart[slots] = int32(len(h.ov))

	// Reverse edges: the overlay is symmetric, and d's list starts with
	// its edges toward the clusters labelled below d's, in ascending label
	// order, which is the order the clusters are visited in here. So one
	// cursor per cluster pairs every edge c→d, where d's label is above
	// c's, with the next unpaired edge of d.
	cursor := extend(h.perCl[:0], slots, 0) // d's edges toward lower labels paired so far
	h.perCl = cursor
	for _, l := range h.labels {
		c := h.slotOf[l]
		for e := h.ovStart[c]; e < h.ovStart[c+1]; e++ {
			if d := h.ov[e].to; h.labelOf[d] > l {
				back := h.ovStart[d] + cursor[d]
				cursor[d]++
				h.ov[e].rev, h.ov[back].rev = back, e
			}
		}
	}
	h.rowAt, h.rows = slices.Grow(h.rowAt[:0], slots)[:slots], h.rows[:0]
	for c := range h.rowAt {
		h.rowAt[c] = rowState{off: -1, next: h.rowAt[c].next[:0]}
	}
}

// Repair brings the table from the assignment of its last Reset or Repair
// to a over g, which must be the same graph, grown or not but not
// renumbered. moved lists, once each, the nodes of the old node count
// whose Head or Parent differ in a (extra entries cost work, missing ones
// give wrong answers); the nodes whose adjacency changed are read from g,
// and nodes added since count as changed. It runs Reset's own passes over
// the clusters the change reaches. It falls back to Reset for another
// graph, after Compact, and when the touched and moved nodes number more
// than a third of the nodes: that is where a repair costs what a build
// does. On the mixed recipe's world at 2 000 nodes and the dataplane
// world at 20 000, a repair cost a Reset at 0.33-0.40 of N changed for
// each epoch kind measured: random jumps 0.33 and 0.39, local jitter 0.33
// and 0.40, fault injection 0.35 and 0.36 (2 000 and 20 000 nodes). Past
// it the clusters' gateway pass costs what Reset's does, and what a build
// does not pay for is the change itself: diffing and replaying the moved
// edges (two fifths of a repair when 5 % of the nodes jump) and soiling,
// filtering and merging the clusters their nodes left and joined. With
// every node changed a repair costs 1.4-1.7 times a build after faults
// and 3-6 times after motion. BenchmarkRoutingEpoch's repair row sits
// below the cut-off, its fallback and jump rows above it. The table then
// answers as a fresh Reset from g and a would.
func (h *Hierarchical) Repair(g *topology.Graph, a *cluster.Assignment, moved []int32) error {
	old, n := len(h.rec), g.N()
	if g != h.g || n < old {
		return h.Reset(g, a)
	}
	touched, ok := g.TouchedSince(h.version, h.touched[:0])
	h.touched = touched
	if !ok || 3*(len(touched)+len(moved)) > n {
		return h.Reset(g, a)
	}
	if err := checkAssignment(g, a, old); err != nil {
		return err
	}
	for _, u := range moved {
		if err := checkHead(a, int(u), n); err != nil {
			return err
		}
	}
	h.version = g.Version()
	h.work.Repairs++
	h.grow(n)

	h.diffEdges(old)
	h.repairComponents(old)
	if h.repairClusters(a, moved, old) {
		h.buildOverlay()
	}
	for _, u := range moved {
		if c := h.slotOf[u]; c >= 0 {
			h.isHead[c] = a.Parent[u] == int(u)
		}
	}
	if 2*h.stale > len(h.trees) {
		h.packTrees()
	}
	h.work.TreesKept += h.liveTrees
	return nil
}

// diffEdges compares each touched node's adjacency with the copy the
// table holds and collects the removed and added edges once each (from
// their lower end: both ends of a changed edge are touched). Nodes from
// old up are new: every edge they have is added.
func (h *Hierarchical) diffEdges(old int) {
	h.removed, h.added = h.removed[:0], h.added[:0]
	for _, t := range h.touched {
		was, now := h.adj[t], h.g.Neighbors(int(t))
		i, j := 0, 0
		for i < len(was) || j < len(now) {
			switch {
			case j == len(now) || (i < len(was) && int(was[i]) < now[j]):
				if was[i] > t {
					h.removed = append(h.removed, edge{t, was[i]})
				}
				i++
			case i == len(was) || now[j] < int(was[i]):
				if w := int32(now[j]); w > t {
					h.added = append(h.added, edge{t, w})
				}
				j++
			default:
				i++
				j++
			}
		}
	}
}

// repairComponents brings the component labels from the old graph to the
// current one. The removed edges are replayed first, one at a time: each
// is deleted from the adjacency copy, which then holds the old graph
// without the edges replayed so far, and split searches that copy.
// Throughout, the labels are its components, and each new node is a
// component of its own. Then the touched rows of the copy are brought up
// to date and every added edge that joins two components relabels the
// smaller side.
// Removing before adding keeps a split's search local when a node jumps
// far: its old edges are replayed while it still sits among its old
// neighbours, and it then joins its new ones as a side of one node.
func (h *Hierarchical) repairComponents(old int) {
	for u := old; u < len(h.rec); u++ {
		h.rec[u].comp = h.newComp(1)
	}
	for _, e := range h.removed {
		h.cut(e.u, e.v)
		h.cut(e.v, e.u)
		h.split(e.u, e.v)
	}
	for _, t := range h.touched {
		h.adj[t] = appendInt32(h.adj[t][:0], h.g.Neighbors(int(t)))
	}
	for _, e := range h.added {
		cu, cv := h.rec[e.u].comp, h.rec[e.v].comp
		if cu == cv {
			continue
		}
		from, into, start := cu, cv, e.u
		if h.compSize[cu] > h.compSize[cv] {
			from, into, start = cv, cu, e.v
		}
		h.relabel(start, from, into)
	}
}

// newComp returns a free component label sized size.
func (h *Hierarchical) newComp(size int32) int32 {
	if k := len(h.freeComp); k > 0 {
		c := h.freeComp[k-1]
		h.freeComp = h.freeComp[:k-1]
		h.compSize[c] = size
		return c
	}
	h.compSize = append(h.compSize, size)
	return int32(len(h.compSize) - 1)
}

// cut deletes w from the adjacency copy of u.
func (h *Hierarchical) cut(u, w int32) {
	i, _ := slices.BinarySearch(h.adj[u], w)
	h.adj[u] = slices.Delete(h.adj[u], i, i+1)
}

// relabel moves the component labelled from, which holds start, to the
// label into by a search over it in the current graph, and frees from.
func (h *Hierarchical) relabel(start, from, into int32) {
	h.rec[start].comp = into
	q := append(h.queue[:0], start)
	for i := 0; i < len(q); i++ {
		for _, w := range h.g.Neighbors(int(q[i])) {
			if h.rec[w].comp == from {
				h.rec[w].comp = into
				q = append(q, int32(w))
			}
		}
	}
	h.queue = q
	h.work.ComponentNodesVisited += len(q)
	h.compSize[into] += h.compSize[from]
	h.compSize[from] = 0
	h.freeComp = append(h.freeComp, from)
}

// split replays the removal of the edge (u, v), already deleted from the
// adjacency copy: a search over the copy from each end, one node per side
// per turn, until the two meet (the component holds) or
// one side runs out of nodes — that side is then a whole component of the
// graph without the edge, and takes a fresh label. Either way it costs
// about twice the smaller side.
func (h *Hierarchical) split(u, v int32) {
	gen := h.nextGen()
	h.mark[u], h.mark[v] = gen, gen+1
	side := [2][]int32{append(h.side[0][:0], u), append(h.side[1][:0], v)}
	at := [2]int{}
search:
	for {
		for s := range side {
			q := side[s]
			if at[s] == len(q) {
				c := h.rec[q[0]].comp
				fresh := h.newComp(int32(len(q)))
				h.compSize[c] -= int32(len(q))
				for _, w := range q {
					h.rec[w].comp = fresh
				}
				break search
			}
			own, other := gen+uint32(s), gen+1-uint32(s)
			x := q[at[s]]
			at[s]++
			for _, w := range h.adj[x] {
				if h.mark[w] == other {
					side[s] = q
					break search
				}
				if h.mark[w] != own {
					h.mark[w] = own
					q = append(q, w)
				}
			}
			side[s] = q
		}
	}
	h.side = side
	h.work.ComponentNodesVisited += len(side[0]) + len(side[1])
}

// repairClusters rebuilds the clusters the change reaches and reports
// whether any gateway may have changed. A node that changed cluster
// dirties both clusters' member lists and the gateways of its
// neighbours' clusters; a changed edge dirties the gateways of both ends'
// clusters, and the trees of the one cluster that holds both ends. Every
// dirty cluster lists its gateways again with appendGateways, as Reset
// does; no other cluster has a member, a neighbour or a neighbour's
// cluster that changed, so its gateways stand.
func (h *Hierarchical) repairClusters(a *cluster.Assignment, moved []int32, old int) bool {
	h.dirty, h.joins = h.dirty[:0], h.joins[:0]
	for _, u := range moved {
		if int(u) >= old {
			continue // new nodes join below
		}
		lo, ln := h.labelOf[h.rec[u].cl], int32(a.Head[u])
		if lo == ln {
			continue
		}
		h.soil(lo, dirtMembers)
		h.soil(ln, dirtMembers)
		h.joins = append(h.joins, joinKey(ln, u))
		for _, w := range h.g.Neighbors(int(u)) {
			h.soil(int32(a.Head[w]), dirtBorder)
		}
	}
	for u := old; u < len(h.rec); u++ {
		l := int32(a.Head[u])
		h.rec[u].cl, h.rec[u].tree = -1, -1
		h.soil(l, dirtMembers)
		h.joins = append(h.joins, joinKey(l, int32(u)))
	}
	for _, es := range [2][]edge{h.removed, h.added} {
		for _, e := range es {
			lu, lv := int32(a.Head[e.u]), int32(a.Head[e.v])
			h.soil(lu, dirtBorder)
			h.soil(lv, dirtBorder)
			if lu == lv {
				h.soil(lu, dirtTrees)
			}
		}
	}
	if len(h.dirty) == 0 {
		return false
	}

	// Drop the trees of every cluster whose members or internal edges
	// changed, while the member lists are still the old ones; then
	// filter out the leavers and merge in the joiners, which the sort
	// groups by cluster in ascending order. A cluster that gains its
	// first member takes a free slot or a new one.
	for _, l := range h.dirty {
		c := h.slotOf[l]
		if c < 0 {
			continue
		}
		if h.dirt[l]&(dirtMembers|dirtTrees) != 0 {
			h.dropTrees(c)
		}
		if h.dirt[l]&dirtMembers != 0 {
			kept := h.members[c][:0]
			for _, x := range h.members[c] {
				if int32(a.Head[x]) == l {
					kept = append(kept, x)
				}
			}
			h.members[c] = kept
		}
	}
	slices.Sort(h.joins)
	h.born = h.born[:0]
	for i := 0; i < len(h.joins); {
		l, add := int32(h.joins[i]>>32), h.perCl[:0]
		for ; i < len(h.joins) && int32(h.joins[i]>>32) == l; i++ {
			add = append(add, int32(h.joins[i]))
		}
		h.perCl = add
		c := h.slotOf[l]
		if c < 0 {
			c = h.takeSlot(l)
			h.born = append(h.born, l)
		}
		h.members[c] = mergeSorted(h.members[c], add, &h.queue)
	}

	// A cluster left without members frees its slot; every member of a
	// rebuilt cluster records its slot and rank.
	died := false
	for _, l := range h.dirty {
		c := h.slotOf[l]
		switch {
		case c < 0:
			continue
		case len(h.members[c]) == 0:
			h.labelOf[c], h.slotOf[l] = -1, -1
			h.border[c] = h.border[c][:0]
			h.freeSlot = append(h.freeSlot, c)
			died = true
			continue
		}
		h.isHead[c] = a.Parent[l] == int(l)
		if h.dirt[l]&dirtMembers != 0 {
			for r, x := range h.members[c] {
				h.rec[x].cl, h.rec[x].rank = c, int32(r)
			}
		}
	}

	// Every record now names its cluster's slot, so each cluster the
	// change reaches lists its gateways as Reset does.
	for _, l := range h.dirty {
		if c := h.slotOf[l]; c >= 0 {
			h.border[c] = h.appendGateways(c, h.border[c][:0])
		}
		h.dirt[l] = 0
	}
	if died {
		h.labels = slices.DeleteFunc(h.labels, func(l int32) bool { return h.slotOf[l] < 0 })
	}
	if len(h.born) > 0 {
		h.labels = mergeSorted(h.labels, h.born, &h.queue)
	}
	return true
}

// takeSlot gives the cluster labelled l a free slot, or a new one, with
// an empty member list.
func (h *Hierarchical) takeSlot(l int32) int32 {
	c := int32(len(h.labelOf))
	if k := len(h.freeSlot); k > 0 {
		c, h.freeSlot = h.freeSlot[k-1], h.freeSlot[:k-1]
		h.labelOf[c] = l
	} else {
		h.labelOf, h.isHead = append(h.labelOf, l), append(h.isHead, false)
		h.members, h.border = append(h.members, nil), append(h.border, nil)
	}
	h.slotOf[l] = c
	return c
}

// joinKey packs a node that joins the cluster labelled l so that sorting
// the keys groups the joiners by cluster, each group ascending.
func joinKey(l, u int32) uint64 { return uint64(l)<<32 | uint64(u) }

// soil records dirt on the cluster labelled l.
func (h *Hierarchical) soil(l int32, d uint8) {
	if h.dirt[l] == 0 {
		h.dirty = append(h.dirty, l)
	}
	h.dirt[l] |= d
}

// dropTrees forgets the filled trees toward the members of the cluster
// in slot c.
func (h *Hierarchical) dropTrees(c int32) {
	size := len(h.members[c])
	for _, x := range h.members[c] {
		if h.rec[x].tree >= 0 {
			h.rec[x].tree = -1
			h.stale += size
			h.liveTrees--
		}
	}
}

// mergeSorted merges the ascending b into the ascending a, through the
// scratch buf, and returns a.
func mergeSorted(a, b []int32, buf *[]int32) []int32 {
	out := (*buf)[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(append(out, a[i:]...), b[j:]...)
	*buf = out
	return append(a[:0], out...)
}

// packTrees moves the trees still in use to the front of a fresh buffer,
// in fill order, dropping the stale entries.
func (h *Hierarchical) packTrees() {
	packed, kept := h.queue[:0], h.owners[:0]
	for _, o := range h.owners {
		r := &h.rec[o.node]
		if r.tree != o.off {
			continue
		}
		size := len(h.members[r.cl])
		r.tree = int32(len(packed))
		kept = append(kept, treeOwner{o.node, r.tree})
		packed = append(packed, h.trees[o.off:int(o.off)+size]...)
	}
	h.queue, h.trees, h.owners, h.stale = h.trees[:0], packed, kept, 0
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
	h.owners = append(h.owners, treeOwner{int32(t), int32(off)})
	h.liveTrees++
	h.work.TreeFills++
	h.trees = extend(h.trees, len(h.members[c]), -1)
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

// rowEntry returns the entry of cluster c in the overlay row toward
// cluster d: the index in ov of c's edge toward d, or -1. The row is
// filled by a breadth-first search from d over the overlay that stops
// once it has reached c, and later calls resume it where it stopped: a
// packet's queries need on average about a quarter of the search, which
// expands whole clusters in FIFO order, so every entry it sets is the one
// a search run to the end would set. A cluster reached from v stores its
// own edge back to v, which carries the gateway it crosses by.
func (h *Hierarchical) rowEntry(d, c int32) int32 {
	at := &h.rowAt[d]
	if at.off < 0 {
		at.off = len(h.rows)
		h.rows = extend(h.rows, len(h.labelOf), -1)
		at.next = append(at.next[:0], d)
	}
	row := h.rows[at.off : at.off+len(h.labelOf)]
	q := append(h.queue[:0], at.next...)
	i := 0
	for ; row[c] < 0 && i < len(q); i++ {
		v := q[i]
		for _, e := range h.ov[h.ovStart[v]:h.ovStart[v+1]] {
			if s := e.to; s != d && row[s] < 0 {
				row[s] = e.rev
				q = append(q, s)
			}
		}
	}
	at.next, h.queue = append(at.next[:0], q[i:]...), q
	return row[c]
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
		e, at := int32(-1), h.rowAt[d]
		if at.off >= 0 {
			e = h.rows[at.off+int(c)]
		}
		if e < 0 && (at.off < 0 || len(at.next) > 0) {
			e = h.rowEntry(d, c)
		}
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
