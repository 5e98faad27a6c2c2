package selfstab

import (
	"fmt"

	"selfstab/internal/snapshot"
)

// Compact recycles the index slots of permanently departed nodes. Slots
// are otherwise never reused — a removed or depleted node keeps its
// dense index so every per-node array across the stack stays aligned —
// which means that under sustained add/remove churn, memory tracks
// cumulative arrivals instead of the operating population. Compact
// closes that gap: dead slots are dropped and the survivors renumbered,
// under one index remap propagated atomically to every structure that
// caches indices — the spatial grid (positions, cells and the unit-disk
// graph), the step engine (node state, identifiers, the id→index map,
// the churn schedule's wake deadlines and the convergence ledger's open
// episode), the traffic queues and flow endpoints, and the energy
// arrays. The cached routing tables and flat distances rebuild because
// compaction advances the graph's version.
//
// Compaction is invisible to everything keyed by node identifier: the
// protocol state, Clusters, Stats, TrafficStats, EnergyStats and
// ConvergenceStats are all bit-identical to a run that never compacted
// (survivors keep their relative order, so every index-ordered loop
// visits them in the same sequence). Three draws are the exception: fault
// injection, the slotted medium and the randomized daemon draw once per
// index slot, dead slots included, so after a compaction they consume
// their streams differently from a run that never compacted. Replay is
// unaffected: it compacts exactly where the original did. What does
// change is the meaning of node *indices*: Positions, State(i) and
// friends renumber, and N() shrinks by the returned count. Call between
// steps — never from a hook.
//
//selfstab:testref the typed form of the compact op, which TestInjectOpMatchesTypedMutator pins POST /inject's compact to
func (n *Network) Compact() (removed int, err error) {
	oldN := n.N()
	if err := n.applyOp(snapshot.Op{Kind: snapshot.OpCompact}); err != nil {
		return 0, err
	}
	return oldN - n.N(), nil
}

// compactImpl is the journaled implementation behind Compact. It is also
// what the auto-compaction threshold calls directly: a triggered
// compaction is a deterministic consequence of the journaled
// SetAutoCompact op, so journaling it too would compact twice on replay.
//
//selfstab:unjournaled auto-compaction replays as a deterministic consequence of the SetAutoCompact op; journaling it too would compact twice
func (n *Network) compactImpl() (removed int, err error) {
	r := n.engine.CompactionRemap()
	if r.Dropped() == 0 {
		return 0, nil
	}
	// Order matters and mirrors construction: topology first (the engine
	// validates its graph against the survivor count), then the engine,
	// then the attached subsystems. The grid's graph advances its Version,
	// which invalidates the index-keyed routing tables and flat distances.
	if err := n.grid.Compact(r); err != nil {
		return 0, fmt.Errorf("selfstab: compact: %w", err)
	}
	if err := n.engine.Compact(r); err != nil {
		return 0, fmt.Errorf("selfstab: compact: %w", err)
	}
	if n.traffic != nil {
		if err := n.traffic.Compact(r); err != nil {
			return 0, fmt.Errorf("selfstab: compact: %w", err)
		}
	}
	if n.energy != nil {
		if err := n.energy.Compact(r); err != nil {
			return 0, fmt.Errorf("selfstab: compact: %w", err)
		}
	}
	return r.Dropped(), nil
}

// SetAutoCompact installs a dead-slot threshold: before every step, if
// at least frac of the slots are dead (and at least one is), the network
// compacts itself. 0 disables auto-compaction (the default); values in
// (0, 1] bound live memory under sustained add/remove churn to
// operating-population × 1/(1-frac) slots. The caveat of Compact
// applies: each triggered compaction renumbers node indices.
func (n *Network) SetAutoCompact(frac float64) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpSetAutoCompact, Frac: frac})
}

// maybeAutoCompact runs a compaction when the dead-slot fraction reached
// the configured threshold. O(1) when below it.
func (n *Network) maybeAutoCompact() error {
	if n.autoCompact <= 0 {
		return nil
	}
	dead := n.engine.DeadCount()
	if dead == 0 || float64(dead) < n.autoCompact*float64(n.N()) {
		return nil
	}
	_, err := n.compactImpl()
	return err
}
