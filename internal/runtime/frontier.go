package runtime

import (
	"errors"

	"selfstab/internal/radio"
)

// The worklist API of a frontier engine (step.go describes how a step
// consumes it). New makes the engine a frontier engine exactly when the
// configuration allows it; SetSparse(false) forces the full scan with
// Deliver, which the equivalence oracles use as their reference. TTL aging
// stays exact on a frontier engine because a node whose ingest left any
// entry unrefreshed re-enters the worklist every step until the entry is
// refreshed or evicted (Node.stale).

// ErrSparseIneligible is returned by SetSparse(true) when the engine's
// medium or daemon cannot support frontier stepping.
var ErrSparseIneligible = errors.New("runtime: frontier stepping needs a lossless medium and a synchronous daemon")

// sparseEligible reports whether frontier stepping is bit-identical to
// the full scan for this engine configuration: nothing in the skipped work
// may consume randomness or change spontaneously. A lossy medium draws
// per-edge randomness every step and can silently start aging any cache
// entry; a randomized daemon draws one value per node per step.
func sparseEligible(medium radio.Medium, proto Protocol) bool {
	_, lossless := medium.(radio.Perfect)
	return lossless && !proto.randomizedDaemon()
}

// Sparse reports whether frontier (worklist) stepping is active.
func (e *Engine) Sparse() bool { return e.sparse }

// SetSparse toggles frontier stepping. Enabling it on an ineligible
// engine (lossy medium, randomized daemon) returns ErrSparseIneligible.
// Both settings produce bit-identical executions; the toggle exists for
// the equivalence oracle tests and for benchmarking the full-scan
// baseline. Call only between steps.
//
//selfstab:testref the full-scan reference of every sparse-vs-dense oracle
func (e *Engine) SetSparse(on bool) error {
	if on && !e.sparseOK {
		return ErrSparseIneligible
	}
	was := e.sparse
	e.sparse = on
	if on && !was {
		// The full scan kept no worklist; conservatively re-examine
		// everything once.
		e.ActivateAll()
	}
	return nil
}

// Activate queues node i for re-examination on the next step. Call it for
// every node whose guard inputs may have changed behind the engine's back
// — in practice, every node whose radio adjacency was changed by an
// incremental topology update (topology.GridIndex fires its adjacency
// hook for exactly that set). Out-of-range indices are ignored (an
// incremental Append notifies the not-yet-registered newcomer, which
// Engine.Append then activates itself). A no-op on a full-scan engine.
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
