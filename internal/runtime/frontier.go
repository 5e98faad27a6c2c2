package runtime

import (
	"errors"

	"selfstab/internal/radio"
)

// The worklist API of a frontier engine (step.go describes how a step
// consumes it). New makes the engine a frontier engine exactly when the
// configuration allows it; SetSparse(false) forces the full scan with
// Deliver, which the equivalence oracles use as their reference.
//
// TTL aging stays exact on a frontier engine without a visit per aging
// step. A visited node whose only work left is an unrefreshed entry
// (Node.stale) parks: it leaves the worklist for a deadline queue and is
// woken at the step its oldest unheard entry is evicted (park, wake). Until
// then every ingest it skips would have changed nothing but ages: nothing
// it hears changes unseen, since a sender's new content pulls it in
// through expand and a sender's arrival or departure activates it. Its
// next visit, whichever path brings it, first replays the skipped ingests
// (Node.unpark).

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

// wheelEntry is one parked node in the deadline queue: its slot and the
// step it parked at. The entry is void once the node has ingested again
// (it is no longer parked, or parked again at a later step).
type wheelEntry struct {
	slot, at int32
}

// park takes visited alive node v, whose only work left is aging its stale
// entries, off the worklist until the step its oldest unheard entry is
// evicted: with age a now, that entry is evicted by the TTL−a+1-th ingest
// from here, so the node is due CacheTTL−a+1 steps ahead, within 1..TTL.
// The wheel has TTL+1 buckets, so a bucket is drained (plan) before any
// later park can reach it again.
func (e *Engine) park(v int32, n *Node) {
	age := int32(0)
	for i := range n.cache {
		age = max(age, n.tick-n.cache[i].heard)
	}
	n.parked, n.parkedAt = true, int32(e.step)
	b := &e.wheel[(e.step+e.proto.CacheTTL-int(age)+1)%len(e.wheel)]
	*b = append(*b, wheelEntry{slot: v, at: n.parkedAt})
}

// wake activates the nodes parked for this step whose entries still hold.
func (e *Engine) wake() {
	b := &e.wheel[e.step%len(e.wheel)]
	for _, p := range *b {
		if n := e.nodes[p.slot]; n.parked && n.parkedAt == p.at {
			e.Activate(int(p.slot))
		}
	}
	*b = (*b)[:0]
}

// unpark replays the ingests node n skipped while parked, before the
// ingest of step begins: each would have heard exactly the senders heard
// at the park (their stamp equals n.tick) and nothing new from them, and
// evicted nothing. So those entries stay age 0, every other entry ages one
// step per skipped ingest, and the clock advances by the same amount.
func (n *Node) unpark(step int32) {
	n.parked = false
	skipped := step - n.parkedAt - 1
	for i := range n.cache {
		if n.cache[i].heard == n.tick {
			n.cache[i].heard += skipped
		}
	}
	n.tick += skipped
}
