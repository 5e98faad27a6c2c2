package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"selfstab/internal/obs"
	"selfstab/internal/radio"
)

// Frontier (worklist) stepping.
//
// After stabilization the protocol is locally quiescent: a node's guards
// can only produce new output when its inputs — its own shared variables
// or its neighbor cache — changed, and its cache can only change when a
// neighbor broadcast new content, appeared, or vanished. The frontier
// engine exploits that: it keeps a worklist of nodes whose inputs may
// have changed (seeded by guard firings, churn transitions, corruption,
// density-scale changes and topology deltas) and re-examines only those
// nodes plus the radio neighborhoods of nodes about to broadcast changed
// frames. A fully stabilized network steps in O(1); a locally perturbed
// one in O(frontier × density) — never O(N).
//
// The result is bit-identical to the full scan, but only when nothing in
// the skipped work consumes randomness or can change spontaneously:
//
//   - the medium must be lossless (radio.Perfect) — a lossy medium draws
//     per-edge randomness every step and can silently start aging any
//     cache entry, so no node ever provably quiesces;
//   - the daemon must be synchronous (ActivationProb 0 or 1) — a
//     randomized daemon draws one value per node per step.
//
// New auto-enables frontier stepping exactly when both hold; SetSparse
// provides an explicit override (the equivalence tests force the dense
// path on one twin). TTL aging stays exact because a node whose ingest
// left any entry unrefreshed re-enters the worklist every step until the
// entry is refreshed or evicted (Node.stale).

// ErrSparseIneligible is returned by SetSparse(true) when the engine's
// medium or daemon cannot support frontier stepping.
var ErrSparseIneligible = errors.New("runtime: frontier stepping needs a lossless medium and a synchronous daemon")

// sparseEligible reports whether frontier stepping is bit-identical to
// the full scan for this engine configuration.
func sparseEligible(medium radio.Medium, proto Protocol) bool {
	if _, lossless := medium.(radio.Perfect); !lossless {
		return false
	}
	return proto.ActivationProb == 0 || proto.ActivationProb == 1
}

// Sparse reports whether frontier (worklist) stepping is active.
func (e *Engine) Sparse() bool { return e.sparse }

// SetSparse toggles frontier stepping. Enabling it on an ineligible
// engine (lossy medium, randomized daemon) returns ErrSparseIneligible.
// Both settings produce bit-identical executions; the toggle exists for
// the equivalence oracle tests and for benchmarking the dense baseline.
// Call only between steps.
func (e *Engine) SetSparse(on bool) error {
	if on && !e.sparseOK {
		return ErrSparseIneligible
	}
	if on && !e.sparse {
		// The dense path kept no worklist; conservatively re-examine
		// everything once.
		e.ActivateAll()
	}
	e.sparse = on
	return nil
}

// Activate queues node i for re-examination on the next step. Call it for
// every node whose guard inputs may have changed behind the engine's back
// — in practice, every node whose radio adjacency was changed by an
// incremental topology update (topology.GridIndex fires its adjacency
// hook for exactly that set). Out-of-range indices are ignored (an
// incremental Append notifies the not-yet-registered newcomer, which
// Engine.Append then activates itself). A no-op on the dense path.
// Sequential only: call between steps or from a pre-step hook.
func (e *Engine) Activate(i int) {
	if !e.sparse || i < 0 || i >= len(e.pendFlag) || e.pendFlag[i] {
		return
	}
	e.pendFlag[i] = true
	e.pend = append(e.pend, int32(i))
}

// ActivateAll queues every node — the conservative response to a
// wholesale topology swap.
func (e *Engine) ActivateAll() {
	if !e.sparse {
		return
	}
	for i := range e.pendFlag {
		if !e.pendFlag[i] {
			e.pendFlag[i] = true
			e.pend = append(e.pend, int32(i))
		}
	}
}

// activateSpread activates a node and a set of co-disrupted sites (the
// former neighbors of a vanished node, which must start aging its cache
// entries this very step).
func (e *Engine) activateSpread(i int, spread []int) {
	e.Activate(i)
	for _, s := range spread {
		e.Activate(s)
	}
}

// FrontierLen returns how many nodes are currently queued for
// re-examination (0 on a stabilized network; always 0 on the dense path).
// Diagnostic: the scale CLI and the quiescence tests read it.
func (e *Engine) FrontierLen() int { return len(e.pend) }

// stepSparse is Step on the frontier path. It must mirror the dense path
// of Step exactly — same phase order, same guard sequence, same epoch and
// ledger bookkeeping — with the single difference that only worklist
// nodes are touched.
func (e *Engine) stepSparse() error {
	probe := e.probe
	if probe != nil {
		probe.PhaseBegin(obs.PhaseChurn)
	}
	e.maybeCloseDisruption()
	if e.preStep != nil {
		if err := e.preStep(e.step); err != nil {
			return fmt.Errorf("step %d: pre-step: %w", e.step, err)
		}
	}
	if probe != nil {
		probe.PhaseEnd(obs.PhaseChurn)
	}

	// Saturated frontier: once half the living population is pending, the
	// worklist's expansion pass plus list indirection costs more than a
	// straight scan — fall back to dense-shaped execution for this step
	// (same per-node work, so still bit-identical; see stepSparseSaturated).
	if len(e.pend) > 0 && 2*len(e.pend) >= e.aliveN {
		return e.stepSparseSaturated()
	}
	if e.tiles > 1 {
		return e.stepTiled()
	}

	// Build this step's worklist: every pending node, plus — for pending
	// nodes about to broadcast changed content — their alive radio
	// neighborhood, which is exactly the set of nodes whose ingest can
	// observe anything new this step.
	e.exec = e.exec[:0]
	for _, v := range e.pend {
		e.execFlag[v] = true
		e.exec = append(e.exec, v)
	}
	for _, v := range e.pend {
		if e.status[v] != StatusAlive || !e.nodes[v].frameDirty {
			continue
		}
		for _, w := range e.g.Neighbors(int(v)) {
			if e.status[w] == StatusAlive && !e.execFlag[w] {
				e.execFlag[w] = true
				e.exec = append(e.exec, int32(w))
			}
		}
	}
	for _, v := range e.pend {
		e.pendFlag[v] = false
	}
	e.pend = e.pend[:0]

	if probe != nil {
		probe.Counter(obs.CtrExec, int64(len(e.exec)))
	}
	if len(e.exec) == 0 {
		// Fully quiescent: no broadcast content changed, no cache is
		// aging, no guard is armed. The step is a no-op on protocol
		// state, exactly like a full scan over clean nodes.
		e.stepChanged = false
		e.step++
		if e.postStep != nil {
			return e.postStep(e.step)
		}
		return nil
	}

	if probe != nil {
		probe.PhaseBegin(obs.PhaseFrame)
	}
	// Phase 1 (parallel): refresh the outgoing frames of worklist nodes.
	// Every frameDirty node is on the worklist (the step invariant all
	// mutators maintain), so after this pass the whole frame arena is
	// current, exactly as after the dense phase 1.
	e.forEachListed(e.exec, func(i int) bool {
		if e.status[i] != StatusAlive {
			return false
		}
		if n := e.nodes[i]; n.frameDirty {
			n.fillFrame(&e.out[i], e.proto.Fusion)
			n.frameDirty = false
		}
		return false
	})
	if probe != nil {
		probe.PhaseEnd(obs.PhaseFrame)
		probe.PhaseBegin(obs.PhaseIngest)
	}

	// Phase 2+3 (parallel): ingest + guards for worklist nodes. The
	// lossless medium delivers each alive neighbor's frame verbatim, so
	// ingest reads adjacency directly — no Deliver call, no inbox.
	tracking := e.disrupt.active
	e.stepChanged = e.forEachListed(e.exec, func(i int) bool {
		if e.status[i] != StatusAlive {
			return false
		}
		n := e.nodes[i]
		ingest(n, e.out, e.g.Neighbors(i), e.sendMask, e.proto)
		if !n.dirty {
			return false
		}
		n.dirty = false
		changed := n.guardN1(e.proto)
		changed = n.guardR1(e.densityScaleOf(i)) || changed
		changed = n.guardR2(e.proto) || changed
		if changed {
			n.dirty = true
			n.frameDirty = true
			if tracking {
				e.disrupt.changed[i] = true
			}
		}
		return changed
	})
	if probe != nil {
		probe.PhaseEnd(obs.PhaseIngest)
	}

	// Post-pass (sequential): re-arm next step's worklist. A node stays
	// on the frontier while its guards are armed, its broadcast content
	// changed (next step its neighbors join via the phase-0 expansion),
	// or any cache entry is aging toward eviction.
	for _, v := range e.exec {
		e.execFlag[v] = false
		if e.status[v] != StatusAlive {
			continue
		}
		n := e.nodes[v]
		if (n.dirty || n.frameDirty || n.stale) && !e.pendFlag[v] {
			e.pendFlag[v] = true
			e.pend = append(e.pend, v)
		}
	}

	if e.stepChanged {
		e.epoch++
		e.lastChange = e.step + 1
	}
	e.step++
	if e.postStep != nil {
		return e.postStep(e.step)
	}
	return nil
}

// stepSparseSaturated is stepSparse's body when the frontier has grown to
// a constant fraction of the living population (mass churn, corruption
// storms, cold start): it drops the worklist machinery for one step and
// scans every node, dense-style, paying O(N) once instead of O(N) plus
// worklist bookkeeping. The per-node work is the same as the frontier
// path's, and running it on extra (clean, off-worklist) nodes is a no-op:
// a clean node's cached neighbors are all alive and sending (anything
// else would have pended it via activateSpread or stale), so its ingest
// refreshes every entry with identical content and its guards never see
// changed inputs. The execution therefore stays bit-identical to the
// frontier path. The worklist is rebuilt by a full index-order scan at
// the end, so the next step resumes sparse stepping seamlessly.
func (e *Engine) stepSparseSaturated() error {
	probe := e.probe
	if probe != nil {
		probe.Counter(obs.CtrDenseFallback, 1)
		probe.Counter(obs.CtrExec, int64(e.aliveN))
		probe.PhaseBegin(obs.PhaseFrame)
	}
	for _, v := range e.pend {
		e.pendFlag[v] = false
	}
	e.pend = e.pend[:0]

	// Phase 1 (parallel): refresh every dirty outgoing frame. All
	// frameDirty nodes were pending (the step invariant), and the full
	// scan is a superset of the worklist.
	e.forEachNode(func(i int) bool {
		if e.status[i] != StatusAlive {
			return false
		}
		if n := e.nodes[i]; n.frameDirty {
			n.fillFrame(&e.out[i], e.proto.Fusion)
			n.frameDirty = false
		}
		return false
	})
	if probe != nil {
		probe.PhaseEnd(obs.PhaseFrame)
		probe.PhaseBegin(obs.PhaseIngest)
	}

	// Phase 2+3 (parallel): ingest + guards for every alive node —
	// identical per-node work to the frontier path.
	tracking := e.disrupt.active
	e.stepChanged = e.forEachNode(func(i int) bool {
		if e.status[i] != StatusAlive {
			return false
		}
		n := e.nodes[i]
		ingest(n, e.out, e.g.Neighbors(i), e.sendMask, e.proto)
		if !n.dirty {
			return false
		}
		n.dirty = false
		changed := n.guardN1(e.proto)
		changed = n.guardR1(e.densityScaleOf(i)) || changed
		changed = n.guardR2(e.proto) || changed
		if changed {
			n.dirty = true
			n.frameDirty = true
			if tracking {
				e.disrupt.changed[i] = true
			}
		}
		return changed
	})
	if probe != nil {
		probe.PhaseEnd(obs.PhaseIngest)
	}

	// Post-pass (sequential): rebuild the worklist by a full index-order
	// scan. Worklist order is unobservable (per-node phases are
	// independent), so index order here vs. activation order on the
	// frontier path changes nothing downstream.
	for i, n := range e.nodes {
		if e.status[i] != StatusAlive {
			continue
		}
		if n.dirty || n.frameDirty || n.stale {
			e.pendFlag[i] = true
			e.pend = append(e.pend, int32(i))
		}
	}

	if e.stepChanged {
		e.epoch++
		e.lastChange = e.step + 1
	}
	e.step++
	if e.postStep != nil {
		return e.postStep(e.step)
	}
	return nil
}

// forEachListed is forEachNode over an explicit index list: fn(i) runs for
// every listed node, in parallel chunks when the list is large enough,
// and the call reports whether any fn returned true. fn must only touch
// node i's private state (plus read-only shared data).
func (e *Engine) forEachListed(list []int32, fn func(i int) bool) bool {
	n := len(list)
	workers := e.workers
	if workers == 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < parallelThreshold {
		changed := false
		for _, v := range list {
			if fn(int(v)) {
				changed = true
			}
		}
		return changed
	}
	var wg sync.WaitGroup
	var changed atomic.Bool
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(part []int32) {
			defer wg.Done()
			c := false
			for _, v := range part {
				if fn(int(v)) {
					c = true
				}
			}
			if c {
				changed.Store(true)
			}
		}(list[lo:hi])
	}
	wg.Wait()
	return changed.Load()
}
