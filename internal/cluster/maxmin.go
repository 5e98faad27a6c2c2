package cluster

import (
	"fmt"

	"selfstab/internal/topology"
)

// MaxMinResult is the outcome of the max-min d-cluster heuristic (Amis,
// Prakash, Vuong, Huynh — INFOCOM 2000), the baseline the paper compares
// density against for stability. Max-min elects heads by 2d flooding
// rounds rather than a local metric, so it has its own result shape:
// cluster membership is by head identifier, without a parent forest.
type MaxMinResult struct {
	// Head holds, for every node, the index of its elected cluster-head;
	// u is a head when Head[u] == u.
	Head []int
	// Rounds is the number of flooding rounds executed (always 2d).
	Rounds int
}

// MaxMin runs the max-min d-cluster heuristic on g with the given unique
// identifiers. d is the cluster radius parameter (d >= 1).
//
// The heuristic: d synchronous rounds of floodmax (every node adopts the
// largest identifier heard so far), then d rounds of floodmin over the
// floodmax result. Each node then applies the original selection rules:
//
//  1. if it heard its own identifier during floodmin, it is a head;
//  2. otherwise, if some identifier appears in both its floodmax and
//     floodmin round logs ("node pairs"), the smallest such identifier is
//     its head;
//  3. otherwise the maximum identifier from the floodmax phase is its head.
func MaxMin(g *topology.Graph, ids []int64, d int) (*MaxMinResult, error) {
	n := g.N()
	if n == 0 {
		return nil, ErrNoNodes
	}
	if len(ids) != n {
		return nil, fmt.Errorf("cluster: %d ids for %d nodes", len(ids), n)
	}
	if d < 1 {
		return nil, fmt.Errorf("cluster: max-min needs d >= 1, got %d", d)
	}
	idx := make(map[int64]int, n)
	for u, id := range ids {
		if v, dup := idx[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate id %d on nodes %d and %d", id, v, u)
		}
		idx[id] = u
	}

	// Round logs: maxLog[r][u] is u's value after floodmax round r
	// (round 0 = own id); minLog likewise for the floodmin phase.
	maxLog := make([][]int64, d+1)
	maxLog[0] = append([]int64(nil), ids...)
	for r := 1; r <= d; r++ {
		maxLog[r] = flood(g, maxLog[r-1], func(a, b int64) bool { return a < b })
	}
	minLog := make([][]int64, d+1)
	minLog[0] = maxLog[d]
	for r := 1; r <= d; r++ {
		minLog[r] = flood(g, minLog[r-1], func(a, b int64) bool { return a > b })
	}

	res := &MaxMinResult{Head: make([]int, n), Rounds: 2 * d}
	for u := 0; u < n; u++ {
		res.Head[u] = idx[electMaxMin(u, ids[u], maxLog, minLog)]
	}
	return res, nil
}

// flood performs one synchronous round: every node replaces its value with
// the extremum (under worse) of its own and its neighbors' previous values.
func flood(g *topology.Graph, prev []int64, worse func(a, b int64) bool) []int64 {
	next := make([]int64, len(prev))
	for u := range prev {
		best := prev[u]
		for _, v := range g.Neighbors(u) {
			if worse(best, prev[v]) {
				best = prev[v]
			}
		}
		next[u] = best
	}
	return next
}

// electMaxMin applies the three max-min selection rules for node u.
func electMaxMin(u int, own int64, maxLog, minLog [][]int64) int64 {
	d := len(maxLog) - 1
	// Rule 1: own id seen during the floodmin phase.
	for r := 1; r <= d; r++ {
		if minLog[r][u] == own {
			return own
		}
	}
	// Rule 2: smallest "node pair" — an id logged in both phases.
	inMax := make(map[int64]bool, d)
	for r := 1; r <= d; r++ {
		inMax[maxLog[r][u]] = true
	}
	var best int64
	found := false
	for r := 1; r <= d; r++ {
		v := minLog[r][u]
		if inMax[v] && (!found || v < best) {
			best, found = v, true
		}
	}
	if found {
		return best
	}
	// Rule 3: the floodmax maximum.
	return maxLog[d][u]
}
