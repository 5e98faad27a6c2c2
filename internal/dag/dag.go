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
	"sort"

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

// Height returns the height, in nodes, of the DAG obtained by orienting
// every edge of g from the node ranked greater to the node ranked lower
// under less (less(u, v) meaning u ≺ v). less must be a strict total order
// on adjacent nodes — exactly what locally-unique colors (or the clustering
// order ≺) provide. The height is the number of nodes on the longest
// directed path; stabilization time of the clustering layer is proportional
// to it (Lemma 2).
func Height(g *topology.Graph, less func(u, v int) bool) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	// Process nodes in ascending order; L(u) = longest descending path
	// starting at u = 1 + max L(v) over neighbors v ≺ u.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return less(order[a], order[b]) })
	l := make([]int, n)
	height := 1
	for _, u := range order {
		l[u] = 1
		for _, v := range g.Neighbors(u) {
			if less(v, u) && l[v]+1 > l[u] {
				l[u] = l[v] + 1
			}
		}
		if l[u] > height {
			height = l[u]
		}
	}
	return height
}

// ColorLess returns a strict order on adjacent nodes from colors, breaking
// (impossible, once stabilized) color ties by identifier so Height is
// well-defined even on transient states.
func ColorLess(colors, ids []int64) func(u, v int) bool {
	return func(u, v int) bool {
		if colors[u] != colors[v] {
			return colors[u] < colors[v]
		}
		return ids[u] < ids[v]
	}
}
