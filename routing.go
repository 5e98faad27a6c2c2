package selfstab

import (
	"errors"
	"fmt"
	"math"

	"selfstab/internal/geom"
	"selfstab/internal/routing"
)

// ErrUnreachable is returned by Route when no path exists between the two
// nodes. It is returned consistently for cross-partition pairs: a pair in
// different connected components always fails with ErrUnreachable, never
// with a table-walk error, regardless of how scrambled a mid-convergence
// cluster assignment is.
var ErrUnreachable = errors.New("selfstab: destination unreachable")

// Route computes a hierarchical route between two node identifiers over
// the current clustering: within a cluster along intra-cluster shortest
// paths, across clusters along the cluster overlay through gateway nodes.
// This is the hierarchical routing the paper's clustering exists to
// enable; each node's routing state is limited to its own cluster (plus
// overlay summaries at the heads) instead of the whole network.
//
// The routing table lives on the Network and is brought up to date only
// when the cluster assignment or topology actually changed (epoch-based
// invalidation). The update repairs the clusters the change touched and
// keeps the rest; the first table and the first after Compact are full
// builds (see hierTable). The walk fills the next-hop trees it needs.
// Repeated queries on a quiescent network cost a table walk and two
// allocations.
//
// The returned path lists node identifiers from src to dst inclusive.
// Call after Stabilize: routes follow the current head assignment.
func (n *Network) Route(srcID, dstID int64) ([]int64, error) {
	src, ok := n.IndexOf(srcID)
	if !ok {
		return nil, fmt.Errorf("selfstab: unknown source id %d", srcID)
	}
	dst, ok := n.IndexOf(dstID)
	if !ok {
		return nil, fmt.Errorf("selfstab: unknown destination id %d", dstID)
	}
	table, err := n.hierTable()
	if err != nil {
		return nil, err
	}
	path, err := table.Route(src, dst)
	if err != nil {
		if errors.Is(err, routing.ErrUnreachable) {
			return nil, ErrUnreachable
		}
		return nil, err
	}
	out, ids := make([]int64, len(path)), n.engine.IDs()
	for i, u := range path {
		out[i] = ids[u]
	}
	return out, nil
}

// hierTable returns the hierarchical routing table for the current epoch.
// When the engine epoch moved since the last call (state-changing step,
// topology change, fault injection) it brings the one table up to date in
// place. The assignment is re-rendered only where a node's head or parent
// identifier changed (renderMoved), and the table runs Reset's own passes
// over the clusters those nodes and the nodes whose edges moved belong to
// or border, keeping every other cluster's members, gateways and filled
// trees (routing.Hierarchical.Repair). The first table, and the first
// after Compact renumbered the slots (the graph reports it), is a full
// O(N+E) build, as is a repair that finds more than a third of the nodes
// changed: a sweep of jump, jitter and fault epochs at 2 000 and 20 000
// nodes put the point where a repair costs a build at 0.33-0.40 of N.
// Next-hop trees are then filled by the queries that need them (see
// internal/routing), so a step under churn pays for the clusters it
// touched and the packets it forwards, not for the table.
func (n *Network) hierTable() (*routing.Hierarchical, error) {
	ep := n.engine.Epoch()
	if n.routeTab != nil && n.routeTabEpoch == ep {
		return n.routeTab, nil
	}
	if n.routeTab == nil {
		n.routeTab = new(routing.Hierarchical)
	}
	if err := n.routeTab.Repair(n.grid.Graph(), &n.routeAsg, n.renderMoved()); err != nil {
		n.routeTab, n.routeIDs = nil, n.routeIDs[:0]
		return nil, err
	}
	n.routeTabEpoch = ep
	return n.routeTab, nil
}

// flatDist returns the hop distance from src to dst on the current topology
// (0 for src == dst, -1 when unreachable): the flat shortest path that is
// the traffic data plane's stretch baseline.
//
// It is an exact A* search toward dst. Every edge of the unit-disk graph
// joins two nodes at most Range apart (the grid index keeps an edge iff
// Dist2 ≤ Range²), so a path of k hops spans at most k·Range and
// h(w) = ⌈(1 − 1e-9)·|p_w − p_dst| / Range⌉ never exceeds the hops left
// from w; the 1e-9 absorbs the rounding of that test and of the division.
// The same triangle inequality makes h consistent (h differs by at most 1
// across an edge), so f = g + h never decreases along a path and a node
// generated from a node of level f lands on level f, f+1 or f+2: three
// rings of buckets, one per level mod 3, each indexed by h, hold every
// open node (its g is the level minus h, so an entry is just the node).
// The search pops the deepest node (smallest h, largest g) of the lowest
// level and returns the moment it generates dst from some u. That answer,
// g(u) + 1, is optimal: no open path is shorter than the current level
// f(u), and h(u) = 1 because u ≠ dst is within range of dst — h(u) = 0
// would put u exactly on dst's position, where every neighbour of u,
// the node that generated it among them, neighbours dst too and would
// have generated dst first; only src has no such parent, and its answer
// 1 is right. A node re-reached by a shorter path is pushed again and its
// older entry is skipped when popped.
//
// The scratch — visit marks and the buckets — lives on the Network and is
// reused across calls, so the search allocates nothing once it has grown
// to the network. A node's stamp and g value share one mark, so testing a
// neighbour reads one cache line: the data plane searches once a step,
// for that step's deliveries, so the graph and the scratch are often cold.
//
//selfstab:hotpath
func (n *Network) flatDist(src, dst int) int {
	if src == dst {
		return 0
	}
	adj, pts := n.grid.Graph(), n.grid.Points()
	if grow := adj.N() - len(n.distMark); grow > 0 {
		n.distMark = append(n.distMark, make([]distMark, grow)...)
	}
	if n.distGen++; n.distGen == 0 { // wrapped: old marks would read as new
		clear(n.distMark)
		n.distGen = 1
	}
	mark, gen, open := n.distMark, n.distGen, &n.distOpen
	for i := range open {
		for h := range open[i] {
			open[i][h] = open[i][h][:0] // an early return leaves entries behind
		}
	}
	t, scale := pts[dst], (1-1e-9)/n.cfg.Range
	f := hopBound(pts[src], t, scale)
	mark[src] = distMark{gen, 0}
	n.pushOpen(f, f, src)
	for left := 1; left > 0; f++ {
		ring := &open[f%3]
		for h := int32(0); int(h) < len(*ring); {
			b := (*ring)[h]
			if len(b) == 0 {
				h++
				continue
			}
			u := int(b[len(b)-1])
			(*ring)[h] = b[:len(b)-1]
			left--
			gu := f - h
			if mark[u].g != gu {
				continue // superseded by a shorter path to u
			}
			for _, w := range adj.Neighbors(u) {
				if w == dst {
					return int(gu) + 1
				}
				if m := mark[w]; m.gen == gen && m.g <= gu+1 {
					continue
				}
				mark[w] = distMark{gen, gu + 1}
				hw := hopBound(pts[w], t, scale)
				n.pushOpen(gu+1+hw, hw, w)
				left++
				if gu+1+hw == f {
					h = hw // one deeper than u: the next node to pop
				}
			}
		}
	}
	return -1
}

// distMark is flatDist's per-node scratch: g is the node's hop count from
// the source, valid while gen equals the search's stamp.
type distMark struct {
	gen uint32
	g   int32
}

// hopBound is flatDist's h: ⌈|p − t|·scale⌉ hops at least from the node
// at p to the node at t, with scale = (1 − 1e-9)/Range.
func hopBound(p, t geom.Point, scale float64) int32 {
	x := math.Sqrt(p.Dist2(t)) * scale
	h := int32(x)
	if float64(h) < x {
		h++
	}
	return h
}

// pushOpen files w, whose bound is h, on flatDist's level f.
func (n *Network) pushOpen(f, h int32, w int) {
	ring := &n.distOpen[f%3]
	for int(h) >= len(*ring) {
		*ring = append(*ring, nil)
	}
	(*ring)[h] = append((*ring)[h], int32(w))
}
