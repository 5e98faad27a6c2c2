package selfstab

import (
	"fmt"
	"slices"
	"sort"

	"selfstab/internal/cluster"
	"selfstab/internal/hierarchy"
	"selfstab/internal/slot"
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

// BuildHierarchy applies the clustering recursively (the paper's Section 6
// future work) up to maxLevels tiers, stopping early once each connected
// component has a single head. It is computed on the current topology with
// the network's identifiers and ≺ configuration; the per-level outcome is
// the fixpoint the distributed protocol would stabilize to when run level
// by level.
//
// Under churn the hierarchy spans the operating population only, like
// Clusters and Verify: dead and sleeping nodes keep their index slots but
// are not clustered, so they never surface as phantom singleton clusters
// at level 0.
func (n *Network) BuildHierarchy(maxLevels int) ([]HierarchyLevel, error) {
	if maxLevels < 1 {
		return nil, fmt.Errorf("selfstab: need at least one level, got %d", maxLevels)
	}
	order := cluster.OrderBasic
	if n.cfg.Sticky {
		order = cluster.OrderSticky
	}
	g, ids := n.grid.Graph(), n.engine.IDs()
	// With energy-aware rotation active the live election runs on
	// scale * density; hand the same weights to the offline fixpoint so
	// level 0 matches what the protocol actually stabilizes to.
	var scales []float64
	for i := range ids {
		if s := n.engine.DensityScale(i); s != 1 {
			if scales == nil {
				scales = make([]float64, len(ids))
				for j := range scales {
					scales[j] = 1
				}
			}
			scales[i] = s
		}
	}
	if mask := n.operatingMask(); mask != nil {
		// Cluster the operating subgraph only. Dead and sleeping nodes are
		// already isolated vertices of the live topology, so dropping
		// them drops no edge.
		r := slot.Plan(len(mask), func(i int) bool { return !mask[i] })
		if r.N() == 0 {
			return nil, fmt.Errorf("selfstab: no operating nodes to cluster")
		}
		g = g.Clone()
		if err := g.Compact(r); err != nil {
			return nil, fmt.Errorf("selfstab: operating subgraph: %w", err)
		}
		ids = slot.Apply(r, slices.Clone(ids))
		scales = slot.Apply(r, scales)
	}
	h, err := hierarchy.Build(g, ids, hierarchy.Options{
		MaxLevels:   maxLevels,
		Order:       order,
		Fusion:      n.cfg.Fusion,
		Level0Scale: scales,
	})
	if err != nil {
		return nil, err
	}
	out := make([]HierarchyLevel, 0, h.Depth())
	for _, l := range h.Levels {
		byHead := make(map[int64][]int64, 8)
		for vi, headVi := range l.Assignment.Head {
			hid := ids[l.NodeOf[headVi]]
			byHead[hid] = append(byHead[hid], ids[l.NodeOf[vi]])
		}
		var level HierarchyLevel
		//selfstab:orderinvariant every cluster is emitted exactly once and the trailing sorts canonicalize the order
		for hid, ms := range byHead {
			sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
			level.Clusters = append(level.Clusters, Cluster{HeadID: hid, Members: ms})
		}
		sort.Slice(level.Clusters, func(i, j int) bool {
			return level.Clusters[i].HeadID < level.Clusters[j].HeadID
		})
		out = append(out, level)
	}
	return out, nil
}
