package runtime

import (
	"fmt"

	"selfstab/internal/obs"
	"selfstab/internal/slot"
)

// Slot compaction. Dead slots are inert — no radio, no edges, cleared
// state — but they pin a dense index in every per-node array across the
// stack, so under sustained add/remove churn memory tracks cumulative
// arrivals instead of the operating population. Compact recycles them
// under one slot.Remap, whose survivors keep their relative order, so
// every index-ordered loop in the stack (guards, forwarding, battery
// charging, victim picks) visits them in the same sequence either way.
//
// The engine plans the remap; every subsystem that caches node indices
// (the topology index, the traffic queues and flow endpoints, the energy
// arrays, the routing tables, the caller's own position/id arrays) must
// be compacted with the same remap in the same quiet instant between
// steps. The selfstab.Network layer orchestrates that; raw engine users
// follow the same contract Append established: topology first, then the
// engine, then everything downstream.

// CompactionRemap builds the dead-slot recycling plan: it drops every
// dead slot. Its Dropped count is 0 when no slot is dead.
func (e *Engine) CompactionRemap() slot.Remap {
	return slot.Plan(len(e.status), func(i int) bool { return e.status[i] == StatusDead })
}

// Compact applies a CompactionRemap: dead slots are dropped, survivors
// are renumbered in place, and the epoch advances so every index-keyed
// derived structure (routing tables, renderings) rebuilds. The caller
// must already have compacted the engine's graph with the same remap
// (topology.GridIndex.Compact / Graph.Compact); protocol state is
// untouched — node caches key on application identifiers, which never
// change — so the step after a Compact computes exactly what it would
// have computed without one. Call only between steps.
//
//selfstab:mutator
func (e *Engine) Compact(r slot.Remap) error {
	if err := r.Check("runtime", len(e.nodes)); err != nil {
		return err
	}
	if e.g.N() != r.N() {
		return fmt.Errorf("runtime: graph has %d nodes, want %d (compact the graph before the engine)", e.g.N(), r.N())
	}
	for old := range e.nodes {
		if r.Of(old) < 0 && e.status[old] != StatusDead {
			return fmt.Errorf("runtime: remap drops node %d which is %s", old, e.status[old])
		}
	}
	// Compaction runs between steps: the collector attributes its span to
	// the following step's record.
	probe := e.probe
	if probe != nil {
		probe.PhaseBegin(obs.PhaseCompact)
		defer func() {
			probe.PhaseEnd(obs.PhaseCompact)
			probe.Counter(obs.CtrCompactions, 1)
		}()
	}
	for old, id := range e.ids {
		if nw := r.Of(old); nw >= 0 {
			e.idx[id] = nw
		} else {
			delete(e.idx, id)
		}
	}
	e.nodes = slot.Apply(r, e.nodes)
	e.ids = slot.Apply(r, e.ids)
	e.out = slot.Apply(r, e.out)
	e.active = slot.Apply(r, e.active)
	e.status = slot.Apply(r, e.status)
	e.sendMask = slot.Apply(r, e.sendMask)
	e.head = slot.Apply(r, e.head)
	e.densityScale = slot.Apply(r, e.densityScale)
	// The worklist: pending survivors keep their queue order, dead slots
	// leave it (they were inert anyway). The visit bitset is empty between
	// steps, so it needs no remap; it keeps its words.
	e.pend = slot.Renumber(r, e.pend)
	e.pendFlag = slot.Apply(r, e.pendFlag)
	e.compactDisruption(r)
	// Rebuild the alive order-statistic index from the compacted statuses
	// (dead slots are gone, so the surviving membership is dense anyway).
	e.aliveIdx.init(r.N())
	for i, s := range e.status {
		if s == StatusAlive {
			e.aliveIdx.set(i)
		}
	}
	e.deadN = 0
	e.epoch++
	return nil
}

// compactDisruption remaps the open-episode tracker so a Compact in the
// middle of a converging disruption leaves the eventual ledger record
// exactly what it would have been: per-slot changed/site flags move with
// their survivors, and the contribution of dropped dead slots — they
// count as affected nodes, and as radius-0 witnesses when they were
// disruption sites — is folded into carry counters that affectedSpread
// adds back at close time.
func (e *Engine) compactDisruption(r slot.Remap) {
	d := &e.disrupt
	if d.active {
		for old, changed := range d.changed {
			if r.Of(old) >= 0 || !changed {
				continue
			}
			d.droppedChanged++
			// A dead slot is isolated, so its BFS distance from the
			// episode's sites is 0 if it is itself a site and
			// unreachable otherwise — exactly the carry below.
			if d.siteSet[old] {
				d.droppedChangedSite = true
			}
		}
	}
	d.changed = slot.Apply(r, d.changed)
	d.siteSet = slot.Apply(r, d.siteSet)
	d.sites = slot.Renumber(r, d.sites)
}
