package runtime

import (
	"fmt"
	"math/bits"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"selfstab/internal/obs"
)

// The step pipeline.
//
// The paper has one step: in every Δ(τ) each live node broadcasts its
// shared variables, ingests what it heard and runs N1, R1, R2 once. Step
// is that step, as one fixed phase sequence:
//
//	churn   close a converged disruption episode, run the pre-step hook
//	plan    build the list of nodes the step visits
//	frame   refresh the outgoing frame of every visited node that
//	        publishes something new — three header scalars when its own
//	        guards moved them, the relayed list too when anything else
//	        did; on a full-scan engine, Deliver
//	ingest  on a full-scan engine, the daemon's draws; then every visited
//	        node ingests its neighbors' frames and runs its armed guards
//	re-arm  visited nodes that still have work rejoin the worklist; one
//	        that only has cache entries to age parks until its oldest
//	        is evicted (frontier.go)
//	commit  epoch and quiescence marker, step count, post-step hook
//
// Two data choices vary between engines and between steps. Both are
// computed from what the engine observes; no caller sets them.
//
// The frame source. A lossy medium draws per-edge randomness every step
// and a randomized daemon draws once per node per step, so on such an
// engine no node ever provably quiesces: it scans every slot every step,
// asks the medium what was delivered, and is the only shape those
// configurations can run (Sparse() == false; also the reference the
// equivalence oracles compare against, via SetSparse(false)). On a
// lossless medium under a synchronous daemon a node hears exactly its
// alive, sending radio neighbors, so ingest reads adjacency and the send
// mask directly and nothing in the step consumes rng: a frontier engine.
//
// The node set. A full-scan engine visits every slot. A frontier engine
// keeps a worklist (pend) of nodes whose guard inputs may have changed —
// seeded by guard firings, lifecycle transitions, corruption, density-scale
// changes and topology deltas — and a step visits the worklist, the parked
// nodes whose oldest cache entry is evicted this step (wake), and the
// alive radio neighborhoods of worklist nodes about to broadcast changed
// content: exactly the nodes whose ingest can observe anything new
// (expand). A stabilized network therefore steps in O(1), and a locally
// perturbed one in O(frontier × density). Either way the step iterates one
// list, exec, in ascending slot order: expand gathers the set in a bitset
// and drains it, so a saturated frontier walks memory as the full scan
// does, and once the set holds every alive node expand stops looking at
// neighborhoods.
//
// The expansion is one sequential pass, and it is 2–6 % of a traced step
// on the heal and churn benchmark workloads (ingest is 83–89 %), too little
// to be worth sharding (README, Scale). The per-node phases are what the
// workers split: a visit writes only the visited node's own state (frame,
// cache, shared variables, its disrupt.changed slot) and reads frames that
// the barrier between the two phases has frozen, so visit order is
// invisible and exec is chunked evenly over the workers wherever the
// perturbation sits.
//
// Determinism: the medium and the daemon draw sequentially, in node
// order, between the parallel phases; per-node draws (DAG colors) come
// from per-node streams; the visit list is built on one goroutine. The
// execution is bit-identical for a fixed seed at any worker count, on a
// frontier or a full-scan engine, pinned by the mixed-trace oracle in
// frontier_test.go.

// parallelThreshold is the visit count below which the per-node phases run
// inline: goroutine fan-out costs more than it saves on tiny node sets.
const parallelThreshold = 128

// Step executes one Δ(τ) step: every live node broadcasts its frame, the
// medium delivers, every live node ingests and runs its guarded
// assignments (N1, R1, R2) once, in that order. Sleeping and dead nodes
// neither transmit nor listen, and their state is frozen (sleeping) or
// cleared (dead). A frontier engine produces the same execution while
// visiting only the nodes that can observe a change (see the pipeline
// comment above).
//
//selfstab:mutator
func (e *Engine) Step() error {
	if e.probe != nil {
		e.probe.BeginStep(e.step)
		e.probe.Counter(obs.CtrFrontier, int64(len(e.pend)))
	}
	changed, err := e.runPhases()
	if e.probe != nil {
		e.closeSpan() // a failing phase returns with its span open
		e.probe.EndStep(e.step, changed)
	}
	return err
}

// runPhases is the body of Step; it reports whether any shared variable
// changed. An error from the pre-step hook or the medium abandons the
// step uncounted; a post-step hook error is returned only after the step
// has fully committed.
func (e *Engine) runPhases() (changed bool, err error) {
	// Close a converged disruption episode before new churn can extend it.
	e.span(obs.PhaseChurn)
	e.maybeCloseDisruption()
	if e.preStep != nil {
		if err := e.preStep(e.step); err != nil {
			return false, fmt.Errorf("step %d: pre-step: %w", e.step, err)
		}
	}
	e.closeSpan()

	e.plan()
	if len(e.exec) > 0 {
		// All frames must exist before any node ingests: the barrier
		// between the two per-node phases is what lets a node read any
		// neighbor's freshly filled frame.
		e.span(obs.PhaseFrame)
		e.forEach((*Engine).fillNode)
		if !e.sparse {
			// The medium owns its rng stream, so delivery decisions are
			// drawn on one goroutine regardless of worker count.
			if err := e.medium.Deliver(e.g, e.sendMask, &e.inbox); err != nil {
				return false, fmt.Errorf("step %d: %w", e.step, err)
			}
			if e.inbox.N() != len(e.nodes) {
				return false, fmt.Errorf("step %d: medium delivered %d rows for %d nodes", e.step, e.inbox.N(), len(e.nodes))
			}
		}
		e.span(obs.PhaseIngest)
		if e.proto.randomizedDaemon() {
			// Scheduling decisions come off the daemon stream in node
			// order, so a fixed seed activates the same nodes for any
			// parallelism.
			for i := range e.active {
				e.active[i] = e.daemon.Float64() < e.proto.ActivationProb
			}
		}
		changed = e.forEach((*Engine).execNode)
		e.closeSpan()
		if e.sparse {
			e.rearm()
		}
	}

	if changed {
		e.epoch++
		e.lastChange = e.step + 1 // the step about to be counted
	}
	e.step++
	if e.postStep != nil {
		err = e.postStep(e.step)
	}
	return changed, err
}

// plan builds the step's visit list, e.exec, consuming the worklist and
// the deadline queue's bucket for this step.
func (e *Engine) plan() {
	e.exec = e.exec[:0]
	if !e.sparse {
		for i := range e.nodes {
			e.exec = append(e.exec, int32(i))
		}
	} else {
		if e.wheel != nil {
			e.wake()
		}
		if len(e.pend) > 0 {
			e.expand()
		}
	}
	e.count(obs.CtrExec, int64(len(e.exec)))
}

// expand turns the worklist into the visit list: every pending node, plus
// the alive radio neighborhood of every pending alive node about to
// broadcast changed content, appended to e.exec in ascending slot order.
// The set is gathered in e.visit and drained from it, leaving it empty.
//
//selfstab:hotpath
func (e *Engine) expand() {
	alive := 0 // alive members of the set
	for _, v := range e.pend {
		e.pendFlag[v] = false
		e.visit[v>>6] |= 1 << (v & 63) // pend is deduplicated (pendFlag)
		if e.status[v] == StatusAlive {
			alive++
		}
	}
	for _, v := range e.pend {
		if alive == e.aliveN {
			break // no neighborhood can add a node
		}
		if n := e.nodes[v]; e.status[v] != StatusAlive || !(n.frameDirty || n.headerDirty) {
			continue
		}
		for _, w := range e.g.Neighbors(int(v)) {
			if word, bit := &e.visit[w>>6], uint64(1)<<(w&63); *word&bit == 0 && e.status[w] == StatusAlive {
				*word |= bit
				alive++
			}
		}
	}
	e.pend = e.pend[:0]
	for i, word := range e.visit {
		if word == 0 {
			continue
		}
		e.visit[i] = 0
		for ; word != 0; word &= word - 1 {
			e.exec = append(e.exec, int32(i<<6|bits.TrailingZeros64(word)))
		}
	}
}

// words is how many 64-bit words a bitset over n slots takes.
func words(n int) int { return (n + 63) >> 6 }

// fillNode refreshes node i's outgoing frame in the engine's scratch when
// anything the node publishes changed; otherwise the copy from an earlier
// step is still valid. A node whose own guards moved a shared variable
// (headerDirty) rewrites three scalars; every other cause (frameDirty)
// rebuilds the frame and compares the relayed list. Every node carrying
// either flag is in the visit list (execNode's visit re-queues it, and
// all mutators that set frameDirty also Activate the node), so after the
// frame phase the whole arena is current. The result exists to fit forEach.
func (e *Engine) fillNode(i int) bool {
	if e.status[i] != StatusAlive {
		return false
	}
	switch n := e.nodes[i]; {
	case n.frameDirty:
		n.fillFrame(&e.out[i], e.proto.Fusion)
		n.frameDirty, n.headerDirty = false, false
	case n.headerDirty:
		n.fillHeader(&e.out[i])
		n.headerDirty = false
	}
	return false
}

// execNode is one node's share of the step: ingest what was delivered,
// then run the guarded assignments if any input changed. It reports
// whether a shared variable changed. Guards are deterministic functions of
// the cache and the node's own shared variables, so unchanged inputs mean
// unchanged outputs and a clean node costs only its ingest.
//
//selfstab:hotpath
func (e *Engine) execNode(i int) bool {
	n := e.nodes[i]
	if n.parked {
		// Before any status check: a node that fell asleep or died since
		// it parked was alive, and ingesting, until this step.
		n.unpark(int32(e.step))
	}
	if e.status[i] != StatusAlive {
		return false // sleeping/dead: radio off, state frozen, no aging
	}
	if e.sparse {
		// Sleeping and dead neighbors stay silent via the send mask (their
		// edges are gone too when the topology layer maintains churn, but
		// the mask keeps the engine correct on a manually mutated graph).
		ingest(n, e.out, e.g.Neighbors(i), e.sendMask, e.proto)
	} else {
		ingest(n, e.out, e.inbox.Senders(i), nil, e.proto)
		if e.proto.randomizedDaemon() && !e.active[i] {
			return false // the daemon did not schedule this node this step
		}
	}
	if !n.dirty {
		return false
	}
	n.dirty = false
	changed := n.guardN1(e.proto)
	changed = n.guardR1(e.densityScaleOf(i)) || changed
	changed = n.guardR2(e.proto) || changed
	if changed {
		// Own shared variables are guard inputs too, and they are
		// broadcast next step — in the frame's header: nothing a guard
		// writes is part of the list the node relays.
		n.dirty = true
		n.headerDirty = true
		e.head[i] = n.IsHead()
		if e.disrupt.active {
			e.disrupt.changed[i] = true
		}
	}
	return changed
}

// rearm rebuilds the worklist from the visited nodes: a node stays on the
// frontier while its guards are armed or its broadcast content changed
// (next step its neighbors join through expand), and parks while a cache
// entry is only aging toward eviction.
func (e *Engine) rearm() {
	for _, v := range e.exec {
		switch n := e.nodes[v]; {
		case e.status[v] != StatusAlive:
		case n.dirty || n.frameDirty || n.headerDirty:
			e.Activate(int(v))
		case n.stale:
			e.park(v, n)
		}
	}
}

// forEach runs visit on every node of the visit list and reports whether
// any call returned true. A list of parallelThreshold nodes or more is cut
// into one even chunk per worker, each on its own goroutine. visit must
// write only node i's own state.
func (e *Engine) forEach(visit func(e *Engine, i int) bool) bool {
	n := len(e.exec)
	chunks := 1
	if n >= parallelThreshold {
		chunks = e.pool(n)
	}
	if chunks == 1 {
		return e.visitRange(0, n, visit)
	}
	var changed atomic.Bool
	var wg sync.WaitGroup
	work := func(k int) {
		defer wg.Done()
		// k·n/chunks never leaves [0, n]; a rounded-up chunk size would.
		if e.visitRange(k*n/chunks, (k+1)*n/chunks, visit) {
			changed.Store(true)
		}
	}
	wg.Add(chunks)
	for k := 0; k < chunks; k++ {
		go work(k)
	}
	wg.Wait()
	return changed.Load()
}

// visitRange is forEach over positions [lo, hi) of the visit list.
func (e *Engine) visitRange(lo, hi int, visit func(e *Engine, i int) bool) bool {
	changed := false
	for _, v := range e.exec[lo:hi] {
		if visit(e, int(v)) {
			changed = true
		}
	}
	return changed
}

// pool returns how many goroutines a node set of n visits is cut over.
func (e *Engine) pool(n int) int {
	workers := e.workers
	if workers == 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// span moves the probe to phase p: the phase span still open, if any, is
// closed and p's is opened. closeSpan only closes. Every phase boundary of
// the step goes through these two, so spans never overlap and Step can
// close whatever an error return left open.
func (e *Engine) span(p obs.Phase) {
	if e.probe != nil {
		e.openSpan(p) // out of line, so the detached case inlines to a nil check
	}
}

func (e *Engine) openSpan(p obs.Phase) {
	e.closeSpan()
	e.probe.PhaseBegin(p)
	e.open, e.inSpan = p, true
}

func (e *Engine) closeSpan() {
	if e.inSpan {
		e.inSpan = false
		e.probe.PhaseEnd(e.open)
	}
}

// count emits one counter observation.
func (e *Engine) count(c obs.Counter, v int64) {
	if e.probe != nil {
		e.probe.Counter(c, v)
	}
}
