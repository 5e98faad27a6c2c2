package selfstab

import (
	"fmt"

	"selfstab/internal/energy"
	"selfstab/internal/obs"
	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
)

// EnergyConfig parameterizes the battery model attached to a Network. It
// is snapshot.EnergyConfig, the record the journal stores.
type EnergyConfig = snapshot.EnergyConfig

// AttachEnergy installs a per-node battery model that runs as a post-step
// phase of every subsequent Δ(τ) step (Step, Run and Stabilize all drive
// it), after the traffic phase of the same step. Every operating node
// pays a role-dependent idle cost (head vs member, read off the live
// clustering), per-packet tx/rx costs driven by the attached data plane's
// counters (idle-only when no traffic is attached), and a reduced sleep
// cost while duty-cycled. A battery that crosses zero kills its node
// through the churn machinery: the depletion becomes a disruption episode
// in ConvergenceStats with steps-to-restabilize and affected radius, its
// queued packets become dead-endpoint drops, and EnergyStats records the
// death. Requires WithCacheTTL, like churn: a depleted node must age out
// of its neighbors' caches.
//
// With Rotation set, the battery level also feeds back into head
// election (see EnergyConfig.Rotation); Verify remains exact — it checks
// the scaled densities against the correspondingly scaled oracle.
//
// Attaching replaces any previously attached model and resets its
// statistics; batteries restart full.
func (n *Network) AttachEnergy(cfg EnergyConfig) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpAttachEnergy, Energy: &cfg})
}

// attachEnergyImpl is the journaled implementation behind AttachEnergy.
func (n *Network) attachEnergyImpl(cfg EnergyConfig) error {
	if n.cfg.CacheTTL == 0 {
		return fmt.Errorf("selfstab: energy requires cache eviction — construct the network with WithCacheTTL")
	}
	hooks := energy.Hooks{
		// Roles hands over the engine's status and head arrays as they are
		// at charge time (an Append or a Compact may have replaced them).
		Roles: func() ([]runtime.NodeStatus, []bool) { return n.engine.Roles() },
		// The counters hook reads whatever data plane is attached at charge
		// time, so traffic may be attached before or after the batteries.
		Counters: func() (tx, rx []int64) {
			if n.traffic == nil {
				return nil, nil
			}
			return n.traffic.Counters()
		},
		Kill: n.removeNodeIdx,
		Scale: func(i int, s float64) error {
			return n.engine.SetDensityScale(i, s)
		},
	}
	eng, err := energy.New(n.N(), cfg, hooks)
	if err != nil {
		return err
	}
	if n.energy != nil && n.energy.Rotation() {
		// A replaced rotating model leaves its scales behind; reset them
		// so the fresh model (whose full batteries mean scale 1 on every
		// node) or the plain-density election starts from a clean slate.
		for i := range n.N() {
			if err := n.engine.SetDensityScale(i, 1); err != nil {
				return err
			}
		}
	}
	eng.SetProbe(n.probe) // late attach inherits the network's probe
	n.energy = eng
	n.energyOn = true
	return nil
}

// DetachEnergy removes the battery model; subsequent steps drain nothing.
// The final statistics remain readable via EnergyStats until the next
// AttachEnergy. Rotation scales currently applied stay in force (the
// frozen battery levels keep shaping the election); re-attach or use a
// non-rotating model to clear them.
func (n *Network) DetachEnergy() {
	_ = n.applyOp(snapshot.Op{Kind: snapshot.OpDetachEnergy})
}

// stepPhases is the engine post-step hook: the traffic data plane moves
// packets, then the battery model charges that same step's activity (and
// may kill depleted nodes through the churn machinery). Both run
// sequentially on the engine's goroutine, so their ledgers stay
// bit-identical at any parallelism.
func (n *Network) stepPhases(step int) error {
	p := n.probe
	if n.trafficOn {
		if p != nil {
			p.PhaseBegin(obs.PhaseTraffic)
		}
		err := n.traffic.Step(step)
		if p != nil {
			p.PhaseEnd(obs.PhaseTraffic)
		}
		if err != nil {
			return err
		}
	}
	if n.energyOn {
		if p != nil {
			p.PhaseBegin(obs.PhaseEnergy)
		}
		err := n.energy.Step(step)
		if p != nil {
			p.PhaseEnd(obs.PhaseEnergy)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// EnergyStats is the battery ledger of the attached energy model; for a
// fixed seed it is bit-identical at any parallelism (pinned by
// TestDeterminismMatrix). It is energy.Stats.
type EnergyStats = energy.Stats

// EnergyStats snapshots the attached battery model's ledger. It fails if
// AttachEnergy was never called.
func (n *Network) EnergyStats() (EnergyStats, error) {
	if n.energy == nil {
		return EnergyStats{}, fmt.Errorf("selfstab: no energy model attached")
	}
	return n.energy.Stats(), nil
}

// EnergyRemaining returns each node's remaining battery as a fraction of
// capacity, indexed like Positions (0 for depleted nodes) — the raw
// material for lifetime analysis beyond the summary in EnergyStats.
func (n *Network) EnergyRemaining() ([]float64, error) {
	if n.energy == nil {
		return nil, fmt.Errorf("selfstab: no energy model attached")
	}
	out := make([]float64, n.N())
	cap := n.energy.Capacity()
	for i := range out {
		out[i] = n.energy.Remaining(i) / cap
	}
	return out, nil
}
