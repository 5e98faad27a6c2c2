package cluster

import (
	"sort"

	"selfstab/internal/topology"
)

// Stats summarizes a clustering the way the paper's Tables 4 and 5 do:
// number of clusters, cluster-head eccentricity inside each cluster
// (e(H(u)/C)), and clusterization-tree length (the number of parent hops a
// node's cluster-head identity travels to reach it).
type Stats struct {
	// NumClusters is the number of distinct cluster-heads.
	NumClusters int
	// MeanHeadEccentricity averages, over clusters, the maximum in-cluster
	// hop distance from the head to a member.
	MeanHeadEccentricity float64
	// MaxHeadEccentricity is the worst in-cluster head eccentricity.
	MaxHeadEccentricity int
	// MeanTreeLength averages, over non-head nodes, the length of the
	// parent chain to the head. Heads contribute 0 through MaxTreeLength
	// only.
	MeanTreeLength float64
	// MaxTreeLength is the deepest parent chain, which bounds the number
	// of steps the head identity needs to propagate (the stabilization
	// time proxy of Section 5).
	MaxTreeLength int
	// Sizes lists the cluster sizes in descending order.
	Sizes []int
}

// ComputeStats measures a on g over every node.
func (a *Assignment) ComputeStats(g *topology.Graph) Stats {
	return a.ComputeStatsOn(g, nil)
}

// ComputeStatsOn measures a on g restricted to the operating nodes
// (operating == nil means every node). Non-operating slots — dead or
// sleeping nodes under churn, which hold their dense indices forever —
// are excluded entirely: they form no singleton clusters, anchor no
// parent chains and never count as members. A head or parent reference
// that does not resolve to an operating node (transient states, a head
// that just died) degrades to self, exactly like the render sanitizer.
func (a *Assignment) ComputeStatsOn(g *topology.Graph, operating []bool) Stats {
	n := g.N()
	var s Stats
	if n == 0 {
		return s
	}
	on := func(u int) bool { return operating == nil || operating[u] }

	// Resolve every operating node to the cluster it counts in; -1 marks a
	// slot outside the population.
	head := make([]int, n)
	for u := range head {
		head[u] = -1
		if !on(u) {
			continue
		}
		h := a.Head[u]
		if h < 0 || h >= n || !on(h) {
			h = u
		}
		head[u] = h
	}

	// Cluster sizes and head eccentricities, indexed by head.
	dist := headDistances(g, head)
	size := make([]int, n)
	ecc := make([]int, n)
	for u, h := range head {
		if h < 0 {
			continue
		}
		size[h]++
		if dist[u] > ecc[h] {
			ecc[h] = dist[u]
		}
	}
	eccSum := 0
	for h, sz := range size {
		if sz == 0 {
			continue
		}
		s.NumClusters++
		eccSum += ecc[h]
		if ecc[h] > s.MaxHeadEccentricity {
			s.MaxHeadEccentricity = ecc[h]
		}
		s.Sizes = append(s.Sizes, sz)
	}
	if s.NumClusters == 0 {
		return s // no operating node: nothing to measure
	}
	s.MeanHeadEccentricity = float64(eccSum) / float64(s.NumClusters)
	sort.Sort(sort.Reverse(sort.IntSlice(s.Sizes)))

	// Parent-chain lengths. A chain ends at a self-parent — or at a
	// reference that leaves the operating population, which a surviving
	// node treats as being its own root.
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	var chainLen func(u int) int
	chainLen = func(u int) int {
		if depth[u] >= 0 {
			return depth[u]
		}
		p := a.Parent[u]
		if p == u || p < 0 || p >= n || !on(p) {
			depth[u] = 0
			return 0
		}
		// Mark to guard against accidental cycles (must not happen for a
		// valid assignment; a cycle would recurse forever otherwise).
		depth[u] = 0
		depth[u] = chainLen(p) + 1
		return depth[u]
	}
	sum, count := 0, 0
	for u := 0; u < n; u++ {
		if !on(u) {
			continue
		}
		d := chainLen(u)
		if d > s.MaxTreeLength {
			s.MaxTreeLength = d
		}
		if a.Parent[u] != u {
			sum += d
			count++
		}
	}
	if count > 0 {
		s.MeanTreeLength = float64(sum) / float64(count)
	}
	return s
}

// headDistances returns every node's hop distance to its cluster's head
// through that cluster's own members, given the partition head[u] (the
// index of u's cluster, or -1 for a slot in no cluster). It runs one BFS
// per cluster from its head; the clusters are disjoint, so all of them
// share one distance array and one queue and the whole pass is O(N+E).
// A node that is in no cluster, that its head cannot reach inside the
// cluster, or whose head belongs to another cluster, gets -1.
func headDistances(g *topology.Graph, head []int) []int {
	dist := make([]int, len(head))
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, len(head))
	for h := range head {
		if head[h] != h {
			continue
		}
		dist[h] = 0
		next := len(queue)
		queue = append(queue, h) // every node is queued at most once
		for ; next < len(queue); next++ {
			v := queue[next]
			for _, w := range g.Neighbors(v) {
				if head[w] == h && dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	return dist
}

// Heads returns the sorted list of cluster-head indices.
func (a *Assignment) Heads() []int {
	var hs []int
	for u, p := range a.Parent {
		if p == u {
			hs = append(hs, u)
		}
	}
	return hs
}
