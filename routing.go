package selfstab

import (
	"errors"
	"fmt"

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
// The routing table lives on the Network and is reset only when the
// cluster assignment or topology actually changed (epoch-based
// invalidation); the reset builds a skeleton and the walk fills the
// next-hop trees it needs (see hierTable). Repeated queries on a quiescent
// network cost a table walk and two allocations.
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
	out := make([]int64, len(path))
	for i, u := range path {
		out[i] = n.ids[u]
	}
	return out, nil
}

// RoutingState reports the mean number of routing-table entries per node
// for the two architectures on the current network: flat link-state
// routing (every node knows every other: N-1 entries, reachable or not)
// versus hierarchical routing over the current clusters. Their ratio is
// the scalability benefit the paper's clustering buys.
func (n *Network) RoutingState() (flat, hierarchical float64, err error) {
	ht, err := n.hierTable()
	if err != nil {
		return 0, 0, err
	}
	return float64(len(n.pts) - 1), ht.StatePerNode(), nil
}

// hierTable returns the hierarchical routing table for the current epoch.
// When the engine epoch moved since the last call (state-changing step,
// topology change, fault injection) it resets the one table in place: an
// O(N+E) skeleton pass over reused buffers, with the component labels kept
// unless topoEpoch moved too. Next-hop trees are then filled by the queries
// that need them (see internal/routing), so a step under churn pays for the
// packets it forwards, not for the table.
func (n *Network) hierTable() (*routing.Hierarchical, error) {
	ep := n.engine.Epoch()
	if n.routeTab == nil || n.routeTabEpoch != ep {
		if n.routeTab == nil {
			n.routeTab = new(routing.Hierarchical)
		}
		if err := n.routeTab.Reset(n.g, n.renderAssignment(&n.routeAsg), n.topoEpoch); err != nil {
			n.routeTab = nil
			return nil, err
		}
		n.routeTabEpoch = ep
	}
	return n.routeTab, nil
}

// flatDist returns the hop distance from src to dst on the current topology
// (0 for src == dst, -1 when unreachable): the flat shortest path that is
// the traffic data plane's stretch baseline. It is a breadth-first search
// that stops at dst, over scratch reused across calls, so it allocates
// nothing once the scratch has grown to the network.
func (n *Network) flatDist(src, dst int) int {
	if src == dst {
		return 0
	}
	if grow := n.g.N() - len(n.distSeen); grow > 0 {
		n.distSeen = append(n.distSeen, make([]uint32, grow)...)
	}
	if n.distGen++; n.distGen == 0 { // wrapped: old marks would read as new
		clear(n.distSeen)
		n.distGen = 1
	}
	seen, gen := n.distSeen, n.distGen
	seen[src] = gen
	q := append(n.distQueue[:0], int32(src))
	for i, hops := 0, 1; i < len(q); hops++ {
		for level := len(q); i < level; i++ {
			for _, w := range n.g.Neighbors(int(q[i])) {
				if w == dst {
					n.distQueue = q
					return hops
				}
				if seen[w] != gen {
					seen[w] = gen
					q = append(q, int32(w))
				}
			}
		}
	}
	n.distQueue = q
	return -1
}
