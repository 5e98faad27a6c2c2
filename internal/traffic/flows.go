package traffic

import (
	"fmt"

	"selfstab/internal/rng"
)

// FlowSpec is one unicast workload between fixed endpoints, resolved for
// the engine: where a snapshot.Flow names its endpoints by identifier, a
// spec holds the node indices they occupy (kept current across Compact),
// and a many-to-one hotspot flow has become one spec per source sharing
// a sink; the caller-facing API does that resolution and expansion.
type FlowSpec struct {
	Kind     FlowKind
	Src, Dst int
	// SrcID and DstID are the same endpoints by identifier. The engine
	// only reports them (Stats.PerFlow): Compact renumbers Src and Dst,
	// identifiers never move.
	SrcID, DstID int64
	// Rate is the mean injection rate in packets per step. Must be > 0.
	Rate float64
	// Start is the first step (1-based, matching the engine's completed-
	// step count) at which the flow injects; 0 means immediately.
	Start int
	// Stop is the last step the flow injects; 0 means never stops.
	Stop int
}

// validate checks the spec against an n-node network. Src == Dst is
// deliberately legal: a self-flow never enters the forwarding loop — each
// packet is delivered at injection with zero hops and appears in the
// ledger as offered and delivered (a loopback measurement workload, and
// the safe degenerate case of randomly sampled endpoint pairs).
func (s *FlowSpec) validate(n int) error {
	if s.Kind != CBR && s.Kind != Poisson {
		return fmt.Errorf("invalid kind %d", int(s.Kind))
	}
	if s.Src < 0 || s.Src >= n || s.Dst < 0 || s.Dst >= n {
		return fmt.Errorf("endpoints (%d, %d) out of range [0, %d)", s.Src, s.Dst, n)
	}
	if s.Rate <= 0 {
		return fmt.Errorf("rate %v must be positive", s.Rate)
	}
	if s.Stop != 0 && s.Stop < s.Start {
		return fmt.Errorf("stop %d before start %d", s.Stop, s.Start)
	}
	return nil
}

// flowState is a FlowSpec plus its runtime accumulators.
type flowState struct {
	spec   FlowSpec
	credit float64 // CBR fractional-packet accumulator

	// flatDist caches the flat shortest-path hop count Src→Dst on the
	// topology at delivery (-1 when disconnected, -2 when never computed),
	// valid while flatVersion matches the hooks' TopoVersion. It is the
	// stretch baseline of every packet the flow delivers under that
	// version: one Dist query per flow per topology version that sees a
	// delivery, instead of one per packet.
	flatDist    int
	flatVersion uint64

	offered   int64
	delivered int64
	dropped   int64
}

// active reports whether the flow injects at the given step.
func (f *flowState) active(step int) bool {
	return step >= f.spec.Start && (f.spec.Stop == 0 || step <= f.spec.Stop)
}

// arrivalsThisStep draws how many packets the flow injects this step. All
// randomness comes from src, consumed in deterministic flow order.
func (f *flowState) arrivalsThisStep(step int, src *rng.Source) int {
	if !f.active(step) {
		return 0
	}
	switch f.spec.Kind {
	case Poisson:
		return src.Poisson(f.spec.Rate)
	default: // CBR
		f.credit += f.spec.Rate
		k := int(f.credit)
		f.credit -= float64(k)
		return k
	}
}

// refreshFlatDist returns the flat distance Src→Dst on the current
// topology, recomputing the cached one when the topology version moved.
// A source whose slot Compact dropped is disconnected from everything, so
// it reads -1 without a query.
func (f *flowState) refreshFlatDist(hooks Hooks) int {
	if v := hooks.TopoVersion(); f.flatDist == -2 || f.flatVersion != v {
		f.flatDist = -1
		if f.spec.Src >= 0 {
			f.flatDist = hooks.Dist(f.spec.Src, f.spec.Dst)
		}
		f.flatVersion = v
	}
	return f.flatDist
}
