// Package dag implements the paper's constant-height DAG construction
// (Algorithm N1, Section 4.1): every node draws a name ("color") from a
// small constant name-space gamma and redraws until its color differs from
// all of its 1-neighbors'. Orienting every edge from the higher color to
// the lower yields a DAG whose height is at most |gamma|+1 — a constant —
// so algorithms whose stabilization time is proportional to the height of
// the DAG induced by their comparison order stabilize in constant time,
// independent of the network diameter.
package dag

import (
	"errors"
	"fmt"

	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// ErrGammaTooSmall is returned when the name-space cannot accommodate the
// neighborhood: a node with degree d needs |gamma| > d free colors.
var ErrGammaTooSmall = errors.New("dag: gamma must exceed the maximum degree")

// Result is the outcome of a DAG construction.
type Result struct {
	// Colors holds the final locally-unique color of every node.
	Colors []int64
	// Steps is the number of synchronized exchange steps used, counted the
	// way the paper's Section 5 does: each step every node broadcasts its
	// color and conflicted nodes redraw; construction ends with the first
	// step in which nobody redraws. (Table 3 reports ~2 steps.)
	Steps int
}

// PaperGamma returns the paper's simulation name-space for g: |gamma| =
// δ² for maximum degree δ, with a floor of δ+1 so a fresh color always
// exists.
func PaperGamma(g *topology.Graph) int64 {
	d := int64(g.MaxDegree())
	return max(d*d, d+1)
}

// Build runs the synchronized color-assignment protocol on a static graph.
// ids are the globally-unique application identifiers: when two neighbors
// collide, the one with the smaller identifier redraws (the paper's
// simulation rule), drawing uniformly from gamma minus its neighbors'
// current colors.
//
// maxSteps bounds the construction defensively; the expected number of
// steps is constant (Theorem 1), so hitting the bound signals a bug or an
// absurdly small gamma.
func Build(g *topology.Graph, ids []int64, gamma int64, maxSteps int, src *rng.Source) (*Result, error) {
	n := g.N()
	if len(ids) != n {
		return nil, fmt.Errorf("dag: %d ids for %d nodes", len(ids), n)
	}
	if gamma <= int64(g.MaxDegree()) {
		return nil, fmt.Errorf("%w: gamma=%d, max degree=%d", ErrGammaTooSmall, gamma, g.MaxDegree())
	}
	if maxSteps < 1 {
		maxSteps = 1
	}

	colors := make([]int64, n)
	for u := range colors {
		colors[u] = src.Int63() % gamma
	}

	res := &Result{Colors: colors}
	for step := 1; step <= maxSteps; step++ {
		res.Steps = step
		// Synchronous semantics: conflicts are evaluated against the
		// colors broadcast this step; all redraws happen together.
		redraw := make([]int, 0, 8)
		for u := 0; u < n; u++ {
			if mustRedraw(g, ids, colors, u) {
				redraw = append(redraw, u)
			}
		}
		if len(redraw) == 0 {
			return res, nil
		}
		for _, u := range redraw {
			colors[u] = drawFresh(g, colors, u, gamma, src)
		}
	}
	return nil, fmt.Errorf("dag: not locally unique after %d steps (gamma=%d)", maxSteps, gamma)
}

// mustRedraw reports whether u collides with some neighbor and loses the
// tie (smaller identifier redraws).
func mustRedraw(g *topology.Graph, ids []int64, colors []int64, u int) bool {
	for _, v := range g.Neighbors(u) {
		if colors[v] == colors[u] && ids[u] < ids[v] {
			return true
		}
	}
	return false
}

// drawFresh implements newId's random(gamma \ Cids_p): a uniform color
// excluding the node's current view of its neighbors' colors.
func drawFresh(g *topology.Graph, colors []int64, u int, gamma int64, src *rng.Source) int64 {
	taken := make(map[int64]bool, g.Degree(u))
	for _, v := range g.Neighbors(u) {
		taken[colors[v]] = true
	}
	// Rejection sampling: free fraction is at least 1 - delta/gamma > 0.
	for {
		c := src.Int63() % gamma
		if !taken[c] {
			return c
		}
	}
}
