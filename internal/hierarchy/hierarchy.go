// Package hierarchy implements the paper's stated future work
// ("hierarchical self-stabilization algorithms", Section 6): the
// density-driven clustering applied recursively. Level-0 is the physical
// network; level-k+1 clusters the overlay graph whose vertices are the
// level-k cluster-heads, two heads being overlay-adjacent when their
// clusters touch (some member of one neighbors some member of the other —
// the standard cluster-adjacency used by hierarchical routing).
//
// Each level reuses the exact same self-stabilizing machinery (density
// metric + ≺ order + fixpoint), so the stabilization argument composes:
// once level k is legitimate, level k+1 stabilizes in the constant time
// of a single layer, giving O(levels) total.
package hierarchy

import (
	"errors"
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/metric"
	"selfstab/internal/topology"
)

// Level is one tier of the hierarchy.
type Level struct {
	// Graph is the overlay graph of this level (level 0: the physical
	// topology).
	Graph *topology.Graph
	// NodeOf maps this level's vertex index to the underlying physical
	// node index (level 0: identity).
	NodeOf []int
	// Assignment is the clustering computed on this level.
	Assignment *cluster.Assignment
}

// Hierarchy is a stack of levels; Levels[0] is the physical clustering.
type Hierarchy struct {
	Levels []Level
}

// Depth returns the number of levels built.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// Options configures hierarchy construction.
type Options struct {
	// MaxLevels caps the stack height (safety and application choice).
	MaxLevels int
	// Order is the ≺ variant used at every level.
	Order cluster.Order
	// Fusion applies the 2-hop head separation rule at every level.
	Fusion bool
	// Level0Scale, when non-nil, multiplies each level-0 vertex's density
	// before the election — the battery-weighted metric of an energy-aware
	// network, so the offline fixpoint matches what the live rotating
	// protocol stabilizes to. Upper levels cluster the overlay by plain
	// density (the live protocol does not run them). Length must match
	// g.N().
	Level0Scale []float64
}

// Build constructs the hierarchy bottom-up on a static topology with the
// given unique identifiers. Construction stops when a level has a single
// cluster per connected component (clustering higher changes nothing) or
// MaxLevels is reached.
func Build(g *topology.Graph, ids []int64, opts Options) (*Hierarchy, error) {
	if g.N() == 0 {
		return nil, errors.New("hierarchy: empty graph")
	}
	if len(ids) != g.N() {
		return nil, fmt.Errorf("hierarchy: %d ids for %d nodes", len(ids), g.N())
	}
	if opts.MaxLevels < 1 {
		opts.MaxLevels = 1
	}
	if opts.Order == 0 {
		opts.Order = cluster.OrderBasic
	}

	h := &Hierarchy{}
	curG := g
	nodeOf := make([]int, g.N())
	for i := range nodeOf {
		nodeOf[i] = i
	}
	if opts.Level0Scale != nil && len(opts.Level0Scale) != g.N() {
		return nil, fmt.Errorf("hierarchy: %d level-0 scales for %d nodes", len(opts.Level0Scale), g.N())
	}
	for lvl := 0; lvl < opts.MaxLevels; lvl++ {
		levelIDs := make([]int64, curG.N())
		for i, phys := range nodeOf {
			levelIDs[i] = ids[phys]
		}
		values := metric.Density{}.Values(curG)
		if lvl == 0 && opts.Level0Scale != nil {
			for i := range values {
				values[i] *= opts.Level0Scale[i]
			}
		}
		a, err := cluster.Compute(curG, cluster.Config{
			Values: values,
			TieIDs: levelIDs,
			Order:  opts.Order,
			Fusion: opts.Fusion,
		})
		if err != nil {
			return nil, fmt.Errorf("hierarchy level %d: %w", lvl, err)
		}
		h.Levels = append(h.Levels, Level{Graph: curG, NodeOf: nodeOf, Assignment: a})

		heads := a.Heads()
		_, comps := curG.Components()
		if len(heads) <= comps {
			break // one head per component: the hierarchy has converged
		}
		nextG, nextNodeOf := overlay(curG, a, nodeOf)
		curG, nodeOf = nextG, nextNodeOf
	}
	return h, nil
}

// overlay builds the next level's graph: one vertex per cluster-head; two
// heads adjacent iff their clusters touch (a member of one is a physical
// neighbor of a member of the other).
func overlay(g *topology.Graph, a *cluster.Assignment, nodeOf []int) (*topology.Graph, []int) {
	heads := a.Heads()
	vertexOf := make(map[int]int, len(heads)) // head (this level's index) -> next level vertex
	nextNodeOf := make([]int, len(heads))
	for vi, hIdx := range heads {
		vertexOf[hIdx] = vi
		nextNodeOf[vi] = nodeOf[hIdx]
	}
	next := topology.New(len(heads))
	for u := 0; u < g.N(); u++ {
		hu := a.Head[u]
		for _, v := range g.Neighbors(u) {
			hv := a.Head[v]
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
	return next, nextNodeOf
}
