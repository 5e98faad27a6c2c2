package runtime

import (
	"fmt"
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
//	plan    choose the node set the step visits
//	frame   refresh the outgoing frame of every visited node that
//	        publishes something new — three header scalars when its own
//	        guards moved them, the relayed list too when anything else
//	        did; on a full-scan engine, Deliver
//	ingest  on a full-scan engine, the daemon's draws; then every visited
//	        node ingests its neighbors' frames and runs its armed guards
//	re-arm  visited nodes that still have work rejoin the worklist
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
// The node set. A frontier engine keeps a worklist (pend) of nodes whose
// guard inputs may have changed — seeded by guard firings, lifecycle
// transitions, corruption, density-scale changes and topology deltas —
// and a step visits the worklist plus the alive radio neighborhoods of
// worklist nodes about to broadcast changed content: exactly the nodes
// whose ingest can observe anything new (expand). A stabilized network
// therefore steps in O(1), and a locally perturbed one in
// O(frontier × density). Once half the living population is pending the
// expansion and list indirection cost more than a straight scan, and the
// node set becomes every slot for that step. That is safe because visiting
// an off-worklist node is a no-op: every neighbor it caches is alive and
// sending (a vanished one would have pended it through activateSpread, an
// aging entry through Node.stale), so its ingest refreshes every entry
// with identical content and leaves its guards disarmed.
//
// The expansion is one sequential pass: it deduplicates through execFlag,
// and it is 2–6 % of a traced step on the heal and churn benchmark
// workloads (ingest is 83–89 %), too little to be worth sharding (README,
// Scale). The per-node phases are what the workers split: a visit writes
// only the visited node's own state (frame, cache, shared variables, its
// disrupt.changed slot) and reads frames that the barrier between the two
// phases has frozen, so the node set is chunked evenly over the workers
// wherever the perturbation sits.
//
// Determinism: the medium and the daemon draw sequentially, in node
// order, between the parallel phases; per-node draws (DAG colors) come
// from per-node streams; the visit list is built on one goroutine. The
// execution is bit-identical for a fixed seed at any worker count and
// either node set, pinned by the mixed-trace oracle in frontier_test.go.

// parallelThreshold is the visit count below which the per-node phases run
// inline: goroutine fan-out costs more than it saves on tiny node sets.
const parallelThreshold = 128

// nodeSet is what one step visits: every slot, or the expanded worklist
// held in e.exec. n is the length of that iteration space.
type nodeSet struct {
	all bool
	n   int
}

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

	set := e.plan()
	if set.all || set.n > 0 {
		// All frames must exist before any node ingests: the barrier
		// between the two per-node phases is what lets a node read any
		// neighbor's freshly filled frame.
		e.span(obs.PhaseFrame)
		e.forEach(set, (*Engine).fillNode)
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
		changed = e.forEach(set, (*Engine).execNode)
		e.closeSpan()
		if e.sparse {
			e.rearm(set)
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

// plan chooses the step's node set and consumes the worklist into it.
func (e *Engine) plan() nodeSet {
	set := nodeSet{all: true, n: len(e.nodes)}
	visited := e.aliveN
	switch {
	case !e.sparse:
		// A full-scan engine keeps no worklist.
	case len(e.pend) > 0 && 2*len(e.pend) >= e.aliveN:
		e.count(obs.CtrDenseFallback, 1)
		for _, v := range e.pend {
			e.pendFlag[v] = false
		}
		e.pend = e.pend[:0]
	default:
		set = nodeSet{n: e.expand()}
		visited = set.n
	}
	e.count(obs.CtrExec, int64(visited))
	return set
}

// expand turns the worklist into the visit list and returns its length:
// every pending node, in activation order, then the alive radio
// neighborhood of every pending node about to broadcast changed content, in
// discovery order.
//
//selfstab:hotpath
func (e *Engine) expand() int {
	if len(e.pend) == 0 {
		return 0
	}
	// pend is deduplicated (pendFlag), so execFlag is set unconditionally.
	for _, v := range e.pend {
		e.pendFlag[v] = false
		e.execFlag[v] = true
	}
	e.exec = append(e.exec[:0], e.pend...)
	e.pend = e.pend[:0]
	for _, v := range e.exec { // the seeds: range fixed its length before any append
		if n := e.nodes[v]; e.status[v] != StatusAlive || !(n.frameDirty || n.headerDirty) {
			continue
		}
		for _, w := range e.g.Neighbors(int(v)) {
			if e.status[w] == StatusAlive && !e.execFlag[w] {
				e.execFlag[w] = true
				e.exec = append(e.exec, int32(w))
			}
		}
	}
	return len(e.exec)
}

// fillNode refreshes node i's outgoing frame in the engine's scratch when
// anything the node publishes changed; otherwise the copy from an earlier
// step is still valid. A node whose own guards moved a shared variable
// (headerDirty) rewrites three scalars; every other cause (frameDirty)
// rebuilds the frame and compares the relayed list. Every node carrying
// either flag is in every node set (execNode's visit re-queues it, and
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
	if e.status[i] != StatusAlive {
		return false // sleeping/dead: radio off, state frozen, no aging
	}
	n := e.nodes[i]
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
// frontier while its guards are armed, its broadcast content changed (next
// step its neighbors join through expand), or a cache entry is aging
// toward eviction.
func (e *Engine) rearm(set nodeSet) {
	if set.all {
		for i := range e.nodes {
			e.requeue(int32(i))
		}
		return
	}
	for _, v := range e.exec {
		e.execFlag[v] = false
		e.requeue(v)
	}
}

func (e *Engine) requeue(v int32) {
	if e.status[v] != StatusAlive {
		return
	}
	if n := e.nodes[v]; n.dirty || n.frameDirty || n.headerDirty || n.stale {
		e.Activate(int(v))
	}
}

// forEach runs visit on every node of the set and reports whether any
// call returned true. A set of parallelThreshold nodes or more is cut into
// one even chunk per worker, each on its own goroutine. visit must write
// only node i's own state.
func (e *Engine) forEach(set nodeSet, visit func(e *Engine, i int) bool) bool {
	chunks := 1
	if set.n >= parallelThreshold {
		chunks = e.pool(set.n)
	}
	if chunks == 1 {
		return e.visitRange(set, 0, set.n, visit)
	}
	var changed atomic.Bool
	var wg sync.WaitGroup
	work := func(k int) {
		defer wg.Done()
		// k·n/chunks never leaves [0, n]; a rounded-up chunk size would.
		if e.visitRange(set, k*set.n/chunks, (k+1)*set.n/chunks, visit) {
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

// visitRange is forEach over positions [lo, hi) of the set's iteration
// space: slot indices, or the visit list.
func (e *Engine) visitRange(set nodeSet, lo, hi int, visit func(e *Engine, i int) bool) bool {
	changed := false
	if set.all {
		for i := lo; i < hi; i++ {
			if visit(e, i) {
				changed = true
			}
		}
		return changed
	}
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
