package runtime

import (
	"fmt"

	"selfstab/internal/obs"
)

// Slot compaction. Dead slots are inert — no radio, no edges, cleared
// state — but they pin a dense index in every per-node array across the
// stack, so under sustained add/remove churn memory tracks cumulative
// arrivals instead of the operating population. Compact recycles them
// under an explicit index remap: survivors keep their relative order
// (the remap is monotone), which is what makes the compacted execution
// bit-identical to the uncompacted one — every index-ordered loop in the
// stack (guards, forwarding, battery charging, victim picks) visits the
// survivors in the same sequence either way.
//
// The engine owns the remap; every subsystem that caches node indices
// (the topology index, the traffic queues and flow endpoints, the energy
// arrays, the routing tables, the caller's own position/id arrays) must
// be compacted with the same remap in the same quiet instant between
// steps. The selfstab.Network layer orchestrates that; raw engine users
// follow the same contract Append established: topology first, then the
// engine, then everything downstream.

// CompactionRemap builds the dead-slot recycling plan: remap[old] is the
// survivor's new index, or -1 for a dead slot; newN is the surviving
// slot count. It returns (nil, N()) when no slot is dead.
func (e *Engine) CompactionRemap() ([]int32, int) {
	if e.deadN == 0 {
		return nil, len(e.nodes)
	}
	remap := make([]int32, len(e.nodes))
	next := int32(0)
	for i, s := range e.status {
		if s == StatusDead {
			remap[i] = -1
			continue
		}
		remap[i] = next
		next++
	}
	return remap, int(next)
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
func (e *Engine) Compact(remap []int32, newN int) error {
	if len(remap) != len(e.nodes) {
		return fmt.Errorf("runtime: remap of %d entries for %d nodes", len(remap), len(e.nodes))
	}
	if e.g.N() != newN {
		return fmt.Errorf("runtime: graph has %d nodes, want %d (compact the graph before the engine)", e.g.N(), newN)
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
	for old, nw := range remap {
		if nw < 0 {
			if e.status[old] != StatusDead {
				return fmt.Errorf("runtime: remap drops node %d which is %s", old, e.status[old])
			}
			delete(e.idx, e.ids[old])
			continue
		}
		i := int(nw)
		e.nodes[i] = e.nodes[old]
		e.ids[i] = e.ids[old]
		e.idx[e.ids[i]] = i
		e.out[i] = e.out[old]
		e.active[i] = e.active[old]
		e.status[i] = e.status[old]
		e.sendMask[i] = e.sendMask[old]
		e.head[i] = e.head[old]
		if e.densityScale != nil {
			e.densityScale[i] = e.densityScale[old]
		}
	}
	e.nodes = e.nodes[:newN]
	e.ids = e.ids[:newN]
	e.out = e.out[:newN]
	e.active = e.active[:newN]
	e.status = e.status[:newN]
	e.sendMask = e.sendMask[:newN]
	e.head = e.head[:newN]
	if e.densityScale != nil {
		e.densityScale = e.densityScale[:newN]
	}
	e.compactDisruption(remap, newN)
	e.compactFrontier(remap, newN)
	// Rebuild the alive order-statistic index from the compacted statuses
	// (dead slots are gone, so the surviving membership is dense anyway).
	e.aliveIdx.init(newN)
	for i, s := range e.status {
		if s == StatusAlive {
			e.aliveIdx.set(i)
		}
	}
	e.deadN = 0
	e.epoch++
	return nil
}

// compactFrontier remaps the worklist: pending survivors keep their
// queue order, dead slots leave it (they were inert anyway).
func (e *Engine) compactFrontier(remap []int32, newN int) {
	kept := e.pend[:0]
	for _, v := range e.pend {
		if nw := remap[v]; nw >= 0 {
			kept = append(kept, nw)
		}
	}
	e.pend = kept
	for i := range e.pendFlag {
		e.pendFlag[i] = false
	}
	e.pendFlag = e.pendFlag[:newN]
	for _, v := range e.pend {
		e.pendFlag[v] = true
	}
	e.execFlag = e.execFlag[:newN]
}

// compactDisruption remaps the open-episode tracker so a Compact in the
// middle of a converging disruption leaves the eventual ledger record
// exactly what it would have been: per-slot changed/site flags move with
// their survivors, and the contribution of dropped dead slots — they
// count as affected nodes, and as radius-0 witnesses when they were
// disruption sites — is folded into carry counters that affectedSpread
// adds back at close time.
func (e *Engine) compactDisruption(remap []int32, newN int) {
	d := &e.disrupt
	if d.active {
		for old, nw := range remap {
			if nw >= 0 {
				continue
			}
			if d.changed[old] {
				d.droppedChanged++
				// A dead slot is isolated, so its BFS distance from the
				// episode's sites is 0 if it is itself a site and
				// unreachable otherwise — exactly the carry below.
				if d.siteSet[old] {
					d.droppedChangedSite = true
				}
			}
		}
	}
	for old, nw := range remap {
		if nw < 0 {
			continue
		}
		d.changed[nw] = d.changed[old]
		d.siteSet[nw] = d.siteSet[old]
	}
	d.changed = d.changed[:newN]
	d.siteSet = d.siteSet[:newN]
	kept := d.sites[:0]
	for _, s := range d.sites {
		if nw := remap[s]; nw >= 0 {
			kept = append(kept, int(nw))
		}
	}
	d.sites = kept
}
