// Package cluster implements the paper's core contribution: density-driven
// cluster-head selection and cluster formation (Section 3), the total
// orders ≺ that drive it (Sections 4.2 and 4.3), the improved head
// stickiness and 2-hop fusion rules, cluster statistics, and the max-min
// d-cluster baseline.
package cluster

// Order is the family of total orders ≺ used to rank nodes. max≺ wins:
// a node joins its ≺-maximal neighbor and locally ≺-maximal nodes elect
// themselves cluster-heads.
type Order int

const (
	// OrderBasic is Section 4.2's order: p ≺ q iff d_p < d_q, or densities
	// are equal and q has the smaller identifier.
	OrderBasic Order = iota + 1
	// OrderSticky is Section 4.3's refinement: on density ties an incumbent
	// cluster-head beats a non-head, and only then does the smaller
	// identifier win. (The paper's clause list leaves two incumbent heads
	// with equal density incomparable; we fall back to the identifier there
	// so ≺ stays total.)
	OrderSticky
)

// String implements fmt.Stringer for experiment labels.
func (o Order) String() string {
	switch o {
	case OrderBasic:
		return "basic"
	case OrderSticky:
		return "sticky"
	default:
		return "order?"
	}
}

// Rank is the information ≺ compares: a metric value, the tie-breaking
// identifier (either the application identifier or the DAG color), whether
// the node is currently a cluster-head (for OrderSticky), and the globally
// unique application identifier as the final tie-break.
//
// The final AppID comparison matters with the DAG: colors are only locally
// unique, so two non-adjacent neighbors of the same node can carry equal
// (density, color) pairs — without a global tie-break the "maximal
// neighbor" would be ill-defined and the join decision could oscillate.
// Because adjacent nodes always have distinct colors, edge orientations
// never reach the AppID clause, so the constant DAG-height bound of
// Section 4.1 is unaffected.
type Rank struct {
	Value  float64
	TieID  int64
	IsHead bool
	AppID  int64
}

// Less reports p ≺ q under order o. It is a strict total order provided
// AppIDs are globally unique.
func (o Order) Less(p, q Rank) bool {
	if p.Value != q.Value {
		return p.Value < q.Value
	}
	if o == OrderSticky && p.IsHead != q.IsHead {
		// The incumbent head is the greater node.
		return q.IsHead
	}
	// Smaller identifier wins: p ≺ q iff Id_q < Id_p.
	if p.TieID != q.TieID {
		return q.TieID < p.TieID
	}
	return q.AppID < p.AppID
}
