package selfstab

import (
	"fmt"
	"slices"

	"selfstab/internal/cluster"
	"selfstab/internal/metric"
	"selfstab/internal/slot"
	"selfstab/internal/topology"
)

// HierarchyLevel is one tier of a recursive clustering: level 0 clusters
// the physical nodes, level k+1 clusters the level-k cluster-heads over
// the overlay graph in which two heads are adjacent when their clusters
// touch.
type HierarchyLevel struct {
	// Clusters lists this level's clusters. Member identifiers refer to
	// physical nodes at level 0 and to lower-level cluster-heads above.
	Clusters []Cluster
}

// order is the ≺ variant the configuration selects, for the live
// protocol, its fixpoint and every hierarchy level above it.
func (n *Network) order() cluster.Order {
	if n.cfg.Sticky {
		return cluster.OrderSticky
	}
	return cluster.OrderBasic
}

// fixpoint is the Lemma 2 oracle of the current world. It returns the
// Definition 1 densities on the true topology, scaled by the engine's
// per-node density multipliers (1 unless energy-aware rotation installed
// them: guard R1 elects on scale * density, so the oracle must too); the
// live assignment; and the head fixpoint those densities reach on the
// realized tie-break values (DAG colors, or the identifiers without the
// DAG) with the live heads as incumbents. Verify checks the live
// assignment against it and BuildHierarchy takes it as level 0.
func (n *Network) fixpoint() (density []float64, live, oracle *cluster.Assignment, err error) {
	g := n.grid.Graph()
	density = metric.Density{}.Values(g)
	ties := make([]int64, len(density))
	for i := range density {
		density[i] *= n.engine.DensityScale(i)
		ties[i] = n.engine.Node(i).TieID()
	}
	live = n.engine.Assignment()
	oracle, err = cluster.Compute(g, cluster.Config{
		Values:   density,
		TieIDs:   ties,
		AppIDs:   n.engine.IDs(),
		Order:    n.order(),
		Fusion:   n.cfg.Fusion,
		PrevHead: live.Head,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("selfstab: oracle: %w", err)
	}
	return density, live, oracle, nil
}

// BuildHierarchy applies the clustering recursively (the paper's Section 6
// future work) up to maxLevels tiers, stopping early once each connected
// component has a single head. Level 0 is the fixpoint Verify checks the
// live clustering against, so on a stabilized network it equals Clusters.
// Each level above clusters the overlay of the one below by plain density,
// with identifiers as tie-breaks and the network's ≺ order and fusion
// rule: the fixpoint the distributed protocol would stabilize to when run
// level by level.
//
// Under churn the hierarchy spans the operating population only, like
// Clusters and Verify: dead and sleeping nodes keep their index slots but
// are not clustered, so they never surface as phantom singleton clusters
// at level 0.
func (n *Network) BuildHierarchy(maxLevels int) ([]HierarchyLevel, error) {
	if maxLevels < 1 {
		return nil, fmt.Errorf("selfstab: need at least one level, got %d", maxLevels)
	}
	_, _, oracle, err := n.fixpoint()
	if err != nil {
		return nil, err
	}
	g, ids, head := n.grid.Graph(), n.engine.IDs(), oracle.Head
	if mask := n.operatingMask(); mask != nil {
		// Cluster the operating subgraph only. Dead and sleeping nodes are
		// isolated vertices of the live topology, so dropping them drops
		// no edge, and every operating node's head operates too.
		r := slot.Plan(len(mask), func(i int) bool { return !mask[i] })
		if r.N() == 0 {
			return nil, fmt.Errorf("selfstab: no operating nodes to cluster")
		}
		g = g.Clone()
		if err := g.Compact(r); err != nil {
			return nil, fmt.Errorf("selfstab: operating subgraph: %w", err)
		}
		ids = slot.Apply(r, slices.Clone(ids))
		head = slot.Renumber(r, slot.Apply(r, head))
	}
	var out []HierarchyLevel
	for {
		out = append(out, HierarchyLevel{Clusters: groupClusters(len(head), func(i int) (int64, int64, bool) {
			return ids[head[i]], ids[i], true
		})})
		if _, comps := g.Components(); len(out) == maxLevels || len(out[len(out)-1].Clusters) <= comps {
			return out, nil // one head per component: the hierarchy has converged
		}
		g, ids = overlay(g, head, ids)
		a, err := cluster.Compute(g, cluster.Config{
			Values: metric.Density{}.Values(g),
			TieIDs: ids,
			Order:  n.order(),
			Fusion: n.cfg.Fusion,
		})
		if err != nil {
			return nil, fmt.Errorf("selfstab: hierarchy level %d: %w", len(out), err)
		}
		head = a.Head
	}
}

// overlay builds the next level's graph: one vertex per cluster-head of
// head (a node's head index on g), in index order, carrying the head's
// identifier; two heads adjacent iff their clusters touch (a member of
// one is a neighbor of a member of the other on g).
func overlay(g *topology.Graph, head []int, ids []int64) (*topology.Graph, []int64) {
	vertexOf := make(map[int]int) // head (this level's index) -> next level vertex
	var nextIDs []int64
	for u, h := range head {
		if h == u {
			vertexOf[u] = len(nextIDs)
			nextIDs = append(nextIDs, ids[u])
		}
	}
	next := topology.New(len(nextIDs))
	for u := 0; u < g.N(); u++ {
		hu := head[u]
		for _, v := range g.Neighbors(u) {
			hv := head[v]
			if hu == hv {
				continue
			}
			a1, ok1 := vertexOf[hu]
			b1, ok2 := vertexOf[hv]
			if !ok1 || !ok2 || next.HasEdge(a1, b1) {
				continue
			}
			// AddEdge only fails on duplicates/self-loops, both excluded.
			_ = next.AddEdge(a1, b1)
		}
	}
	return next, nextIDs
}
