package cluster

import (
	"fmt"

	"selfstab/internal/topology"
)

// CheckInvariants verifies the structural properties a legitimate
// assignment must satisfy. It returns nil when all hold:
//
//  1. Parent and Head have one entry per node and reference valid nodes.
//  2. F(p) is p itself or a neighbor of p.
//  3. The parent relation is acyclic; its fixpoints are exactly the nodes
//     with Head[p] == p.
//  4. Heads are fixpoints of H: H(H(p)) = H(p).
//  5. No two cluster-heads are adjacent (Section 3: "two neighbors can not
//     be both cluster-heads").
//
// Without fusion, additionally:
//
//  6. H(p) = H(F(p)): the parent chain from p ends exactly at p's head.
//  7. Every cluster is connected (it grows by joining neighbors).
//
// With fusion instead:
//
//  8. Any two cluster-heads are at graph distance >= 3 (Section 4.3).
//     (Chains of fusion-demoted heads relay through a neighbor of the
//     adopted head, so 6 and 7 are deliberately not required — the merged
//     cluster's identity is adopted directly, not learned along the parent
//     chain.)
//
// Errors name nodes by identifier: ids[u] is node u's (nil names each
// node by its index). A parent or head outside the graph names no node,
// so it is printed as the index it holds.
func CheckInvariants(g *topology.Graph, a *Assignment, fusion bool, ids []int64) error {
	n := g.N()
	if len(a.Parent) != n || len(a.Head) != n {
		return fmt.Errorf("assignment sized %d/%d for %d nodes", len(a.Parent), len(a.Head), n)
	}
	if ids != nil && len(ids) != n {
		return fmt.Errorf("%d identifiers for %d nodes", len(ids), n)
	}
	id := func(u int) int64 {
		if ids == nil {
			return int64(u)
		}
		return ids[u]
	}
	for u := 0; u < n; u++ {
		p := a.Parent[u]
		if p < 0 || p >= n {
			return fmt.Errorf("node %d: parent index %d out of range", id(u), p)
		}
		if h := a.Head[u]; h < 0 || h >= n {
			return fmt.Errorf("node %d: head index %d out of range", id(u), h)
		}
		if p != u && !g.HasEdge(u, p) {
			return fmt.Errorf("node %d: parent %d is not a neighbor", id(u), id(p))
		}
		if (p == u) != (a.Head[u] == u) {
			return fmt.Errorf("node %d: parent fixpoint %v but head fixpoint %v",
				id(u), p == u, a.Head[u] == u)
		}
		if a.Head[a.Head[u]] != a.Head[u] {
			return fmt.Errorf("node %d: head %d is not its own head", id(u), id(a.Head[u]))
		}
	}
	// Chain termination (and, without fusion, head consistency).
	for u := 0; u < n; u++ {
		v := u
		for hops := 0; a.Parent[v] != v; hops++ {
			if hops > n {
				return fmt.Errorf("node %d: parent chain does not terminate", id(u))
			}
			v = a.Parent[v]
		}
		if !fusion && v != a.Head[u] {
			return fmt.Errorf("node %d: chain ends at %d but Head is %d", id(u), id(v), id(a.Head[u]))
		}
	}
	// No two adjacent heads.
	for u := 0; u < n; u++ {
		if a.Parent[u] != u {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if a.Parent[v] == v {
				return fmt.Errorf("adjacent cluster-heads %d and %d", id(u), id(v))
			}
		}
	}
	if !fusion {
		// Cluster connectivity: BFS within each cluster from its head must
		// reach every member. (Every Head value is a head by the checks
		// above, so a.Head is the partition headDistances expects.)
		for u, d := range headDistances(g, a.Head) {
			if d < 0 {
				return fmt.Errorf("cluster %d: member %d unreachable inside cluster", id(a.Head[u]), id(u))
			}
		}
		return nil
	}
	// Fusion: heads pairwise >= 3 hops apart.
	heads := a.Heads()
	isHead := make([]bool, n)
	for _, h := range heads {
		isHead[h] = true
	}
	for _, h := range heads {
		for _, x := range g.Neighbors(h) {
			for _, v := range g.Neighbors(x) {
				if v != h && isHead[v] {
					return fmt.Errorf("fusion violated: heads %d and %d within 2 hops", id(h), id(v))
				}
			}
		}
	}
	return nil
}
