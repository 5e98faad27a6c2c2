// Package paperex encodes the illustrative example of the paper's Figure 1
// and Table 1: a nine-node topology (nodes a, b, c, d, e, f, h, i, j) whose
// densities, parent choices and final two-cluster structure are spelled out
// in the text. It is the ground-truth fixture used by metric, cluster and
// example tests.
//
// The edge set is reconstructed from the paper's stated neighbor/link
// counts; it is the unique graph consistent with Table 1 and the worked
// narrative ("c joins b, b joins h, h is a head; f joins j, j is a head"):
//
//	a-d a-i b-c b-d b-h b-i h-i i-e d-f d-j f-j
//
// Identifiers: the paper assumes node j has the smallest identifier (that is
// how the f/j density tie resolves toward j), so we number j first.
package paperex

import (
	"selfstab/internal/geom"
	"selfstab/internal/topology"
)

// Node indices of the fixture. Values are dense graph indices.
const (
	J = iota // smallest identifier, per the paper's tie-break assumption
	A
	B
	C
	D
	E
	F
	H
	I
	NumNodes
)

// Names maps fixture indices to the paper's node letters.
var Names = [NumNodes]string{"j", "a", "b", "c", "d", "e", "f", "h", "i"}

// Graph returns a fresh copy of the Figure 1 topology.
func Graph() *topology.Graph {
	g := topology.New(NumNodes)
	edges := [][2]int{
		{A, D}, {A, I},
		{B, C}, {B, D}, {B, H}, {B, I},
		{H, I},
		{I, E},
		{D, F}, {D, J},
		{F, J},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			// The fixture is a compile-time constant; an error here is a
			// programming bug, not a runtime condition.
			panic(err)
		}
	}
	return g
}

// IDs returns the node identifiers: the fixture index doubles as the
// identifier, which makes j (index 0) the smallest, as the paper assumes.
func IDs() []int64 {
	ids := make([]int64, NumNodes)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// WantNeighbors is Table 1's "# Neighbors" row.
//
//selfstab:testref Table 1 of the paper, which the cluster, metric and runtime tests compare against
var WantNeighbors = map[int]int{
	A: 2, B: 4, C: 1, D: 4, E: 1, F: 2, H: 2, I: 4, J: 2,
}

// WantLinks is Table 1's "# Links" row (the density numerator).
//
//selfstab:testref Table 1 of the paper, which the cluster, metric and runtime tests compare against
var WantLinks = map[int]int{
	A: 2, B: 5, C: 1, D: 5, E: 1, F: 3, H: 3, I: 5, J: 3,
}

// WantDensity is Table 1's "1-density" row.
//
//selfstab:testref Table 1 of the paper, which the cluster, metric and runtime tests compare against
var WantDensity = map[int]float64{
	A: 1, B: 1.25, C: 1, D: 1.25, E: 1, F: 1.5, H: 1.5, I: 1.25, J: 1.5,
}

// WantParent is the parent relation F(p) from the worked example. Nodes that
// are their own parent are cluster-heads.
//
//selfstab:testref Table 1 of the paper, which the cluster, metric and runtime tests compare against
var WantParent = map[int]int{
	C: B, // "node c joins its neighbor node b"
	B: H, // "F(b) = h"
	H: H, // "node h ... becomes its own cluster-head"
	F: J, // "F(f) = j"
	J: J, // "F(j) = j"
	// The remaining nodes are not spelled out in the text but follow from
	// the rule (join the ≺-maximal neighbor):
	A: D, // d and i tie at 1.25; d has the smaller identifier
	D: J, // f and j tie at 1.5; j has the smaller identifier
	E: I, // i is e's only neighbor
	I: H, // h has i's highest neighbor density
}

// WantHead is the final cluster-head H(p) of every node: two clusters,
// one around h and one around j.
//
//selfstab:testref Table 1 of the paper, which the cluster, metric and runtime tests compare against
var WantHead = map[int]int{
	A: J, B: H, C: H, D: J, E: H, F: J, H: H, I: H, J: J,
}

// Layout returns plotting positions for the fixture in the unit square,
// arranged like the paper's Figure 1 (purely cosmetic; the topology is
// defined by Graph, not by distances).
func Layout() []geom.Point {
	pts := make([]geom.Point, NumNodes)
	pts[A] = geom.Point{X: 0.18, Y: 0.48}
	pts[B] = geom.Point{X: 0.48, Y: 0.58}
	pts[C] = geom.Point{X: 0.64, Y: 0.50}
	pts[D] = geom.Point{X: 0.36, Y: 0.36}
	pts[E] = geom.Point{X: 0.24, Y: 0.72}
	pts[F] = geom.Point{X: 0.56, Y: 0.20}
	pts[H] = geom.Point{X: 0.44, Y: 0.76}
	pts[I] = geom.Point{X: 0.32, Y: 0.58}
	pts[J] = geom.Point{X: 0.42, Y: 0.10}
	return pts
}
