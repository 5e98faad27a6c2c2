// Package metric implements the node-importance metrics that drive
// cluster-head selection: the paper's density criterion (Definition 1) and
// the baseline criteria it is compared against in the literature — node
// degree and lowest identifier. A metric assigns every node a value; the
// clustering layer then elects local maxima of (value, tie-break) as heads.
package metric

import "selfstab/internal/topology"

// Metric computes a per-node selection value from the topology. Larger is
// better: the clustering layer joins the neighbor with the largest value.
type Metric interface {
	// Name identifies the metric in experiment output.
	Name() string
	// Values returns one value per node of g.
	Values(g *topology.Graph) []float64
}

// Density is the paper's metric (Definition 1): the ratio between the
// number of links in a node's closed 1-neighborhood and its number of
// 1-neighbors. It smooths microscopic topology changes: a single node
// moving in or out of N(p) shifts the ratio only slightly, which is the
// source of the protocol's robustness under mobility.
type Density struct{}

var _ Metric = Density{}

// Name implements Metric.
func (Density) Name() string { return "density" }

// Values implements Metric. Isolated nodes (|Np| = 0) get value 0: they
// trivially elect themselves and the value never competes with anyone.
func (Density) Values(g *topology.Graph) []float64 {
	vals := make([]float64, g.N())
	for u := range vals {
		deg := g.Degree(u)
		if deg == 0 {
			continue
		}
		vals[u] = float64(g.ClosedNeighborhoodLinks(u)) / float64(deg)
	}
	return vals
}

// ValueOf returns the density of a single node, for callers that do not
// need the full vector.
func (Density) ValueOf(g *topology.Graph, u int) float64 {
	deg := g.Degree(u)
	if deg == 0 {
		return 0
	}
	return float64(g.ClosedNeighborhoodLinks(u)) / float64(deg)
}

// DensityFromTables computes a node's density from neighbor-list knowledge
// only, the way a protocol node does after two steps of information
// exchange: own is the node's 1-neighbor set and nbrLists maps each
// neighbor to its own 1-neighbor set (possibly stale). The count follows
// Definition 1 exactly: edges (v, w) with v in N(p) and w in {p} ∪ N(p).
//
//selfstab:testref the Definition 1 oracle internal/runtime's TestGuardR1MatchesDensityOracle pins guard R1's merge-scan count to
func DensityFromTables(self int64, own []int64, nbrLists map[int64][]int64) float64 {
	if len(own) == 0 {
		return 0
	}
	inN := make(map[int64]bool, len(own))
	for _, q := range own {
		inN[q] = true
	}
	links := len(own) // the |Np| edges p-q
	// Count edges among neighbors once: v < w, both in N(p), adjacent
	// according to v's advertised list.
	for _, v := range own {
		for _, w := range nbrLists[v] {
			if w > v && inN[w] {
				links++
			}
		}
	}
	return float64(links) / float64(len(own))
}

// Degree is the classical highest-degree baseline (e.g. Chen-Stojmenovic):
// the node with the most 1-neighbors wins.
type Degree struct{}

var _ Metric = Degree{}

// Name implements Metric.
func (Degree) Name() string { return "degree" }

// Values implements Metric.
func (Degree) Values(g *topology.Graph) []float64 {
	vals := make([]float64, g.N())
	for u := range vals {
		vals[u] = float64(g.Degree(u))
	}
	return vals
}

// Constant gives every node the same value, reducing head election to the
// pure identifier tie-break. Combined with a smallest-id-wins order this is
// the classical lowest-ID clustering baseline (Baker-Ephremides / CBRP).
type Constant struct{}

var _ Metric = Constant{}

// Name implements Metric.
func (Constant) Name() string { return "lowest-id" }

// Values implements Metric.
func (Constant) Values(g *topology.Graph) []float64 {
	return make([]float64, g.N())
}
