package runtime

import (
	"errors"
	"fmt"
	"slices"

	"selfstab/internal/cluster"
	"selfstab/internal/obs"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// Protocol configures which layers of the stack run and how.
type Protocol struct {
	// UseDag enables Algorithm N1: metric ties break on locally-unique DAG
	// colors instead of application identifiers.
	UseDag bool
	// Gamma is the DAG color space size |γ| (required with UseDag; must
	// exceed the maximum degree).
	Gamma int64
	// Order selects the ≺ variant.
	Order cluster.Order
	// Fusion enables the Section 4.3 two-hop head fusion rule.
	Fusion bool
	// CacheTTL evicts neighbor cache entries not refreshed for this many
	// steps. 0 disables eviction (appropriate for static topologies); under
	// mobility or a lossy medium use a few multiples of 1/τ.
	CacheTTL int
	// ActivationProb models the daemon: each step, each node evaluates its
	// guarded assignments with this probability (it still broadcasts and
	// listens — the daemon schedules computation, not communication).
	// 0 or 1 is the synchronous daemon of the oracle; values in (0, 1)
	// give a randomized daemon under which self-stabilization must still
	// hold (the paper's execution semantics only assume each enabled guard
	// is eventually executed).
	ActivationProb float64
}

// randomizedDaemon reports whether the daemon draws a scheduling decision
// per node per step (0 and 1 are both the synchronous daemon).
func (p Protocol) randomizedDaemon() bool {
	return p.ActivationProb > 0 && p.ActivationProb < 1
}

func (p Protocol) validate(g *topology.Graph) error {
	if p.Order != cluster.OrderBasic && p.Order != cluster.OrderSticky {
		return fmt.Errorf("runtime: invalid order %d", int(p.Order))
	}
	if p.UseDag && p.Gamma <= int64(g.MaxDegree()) {
		return fmt.Errorf("runtime: gamma %d must exceed max degree %d", p.Gamma, g.MaxDegree())
	}
	if p.CacheTTL < 0 {
		return fmt.Errorf("runtime: negative cache ttl %d", p.CacheTTL)
	}
	if p.ActivationProb < 0 || p.ActivationProb > 1 {
		return fmt.Errorf("runtime: activation probability %v outside [0, 1]", p.ActivationProb)
	}
	return nil
}

// Engine drives a set of protocol nodes over a radio medium, one Δ(τ) step
// at a time (step.go describes the step).
//
// The step path is engineered for throughput: outgoing frames, the CSR
// delivery inbox, the visit lists and daemon activation draws live in
// per-engine scratch buffers that are reused every step, so a steady-state
// Step performs O(1) amortized allocations, and the per-node phases run on
// a GOMAXPROCS-sized worker pool.
type Engine struct {
	g       *topology.Graph
	ids     []int64
	idx     map[int64]int
	proto   Protocol
	medium  radio.Medium
	nodes   []*Node
	daemon  *rng.Source
	src     *rng.Source // retained master source: Append derives per-node streams from it
	step    int
	workers int // 0 = GOMAXPROCS

	// Node lifecycle (churn). status holds each slot's lifecycle state;
	// sendMask mirrors status == StatusAlive in the []bool shape the radio
	// medium consumes. Slot indices are stable between Compact calls: a
	// dead node keeps its dense index so every per-node array across the
	// stack stays aligned, until an explicit Compact recycles dead slots
	// under an index remap. aliveN and deadN are maintained incrementally
	// so population queries are O(1) at any scale.
	status   []NodeStatus
	sendMask []bool
	aliveN   int
	deadN    int

	// grid switches lifecycle transitions' edges (Grid; nil on a bare
	// graph). wakeAt holds each slot's scheduled wake step, 0 for none:
	// Sleep sets it and every transition out of sleep clears it. wakeList
	// is the slots Sleep scheduled, in scheduling order, for WakeDue.
	grid     Grid
	wakeAt   []int
	wakeList []int32

	// head[i] mirrors nodes[i].IsHead() for every slot, whatever its
	// status: the data plane and the battery pass read headship once per
	// packet or node per step, and a dense byte read beats a node
	// pointer chase. Every write of a node's headID writes its bit too —
	// the guards (each worker its own slots), Corrupt, a cold restart,
	// Append, construction and Compact.
	head []bool

	// The worklist (step.go, frontier.go). sparseOK records whether this
	// configuration can run as a frontier engine at all; sparse whether it
	// currently does. pend is next step's deduplicated worklist. exec is
	// the current step's visit list in ascending slot order; a frontier
	// engine gathers it in visit, a bitset over slots that is empty
	// between steps.
	sparse   bool
	sparseOK bool
	pendFlag []bool
	pend     []int32
	exec     []int32
	visit    []uint64

	// wheel is the deadline queue of parked nodes (frontier.go): bucket
	// s mod len(wheel) holds the nodes due at step s. CacheTTL+1 buckets,
	// nil without a TTL, where nothing ages and nothing parks.
	wheel [][]wheelEntry

	// aliveIdx is a Fenwick tree over alive bits (aliveindex.go): NthAlive
	// answers order-statistic queries ("the k-th living slot") in O(log N)
	// for churn victim picks. Maintained by every lifecycle transition.
	aliveIdx fenwick

	// densityScale holds the per-node multiplier applied to the shared
	// density by guard R1 (nil until the first SetDensityScale: every
	// node at 1). The energy subsystem drives it with quantized remaining-
	// battery fractions, turning head election energy-aware online. The
	// slice is written only between steps (sequentially) and read by the
	// parallel guard phase, mirroring the status array's discipline.
	densityScale []float64

	// Reusable step scratch.
	out        []Frame // one outgoing frame per sender
	inbox      radio.Inbox
	active     []bool // daemon pre-draws (only populated when 0 < p < 1)
	lastChange int    // most recent step (or disruption) that changed shared state

	// Disruption tracking for the convergence ledger (see churn.go).
	convWindow int
	disrupt    disruption
	ledger     []DisruptionRecord
	bfsDist    []int32
	bfsQueue   []int32

	// epoch increments whenever anything a derived structure (routing
	// tables, cluster renderings) could depend on changes: a step that
	// altered shared state, a lifecycle op, or fault injection. Epoch adds
	// the graph's Version, so an edge change moves it too. Callers cache
	// derived state keyed by Epoch and rebuild only on a mismatch.
	epoch uint64

	// probe, when set, receives the instrumentation stream (phase spans,
	// counters). Every emission site is behind a nil
	// check, so a detached probe costs nothing; an attached probe must be a
	// pure observer (the obspure rule — see internal/obs) so the execution
	// stays bit-identical either way. open is the phase whose span the
	// step has open while inSpan.
	probe  obs.Probe
	open   obs.Phase
	inSpan bool

	// postStep, when set, runs at the end of every Step after the guards —
	// the hook the traffic data plane uses to move packets inside the same
	// Δ(τ) step loop. preStep runs at the start of every Step, before any
	// broadcast — the hook churn schedules use to add, remove, crash and
	// duty-cycle nodes inside the same loop.
	postStep func(step int) error
	preStep  func(step int) error
}

// ErrNotStabilized is returned by RunUntilStable when the state kept
// changing through the step budget.
var ErrNotStabilized = errors.New("runtime: did not stabilize within the step budget")

// New builds an engine over graph g with the given unique application
// identifiers. The master rng source is split per node (DAG color draws)
// so runs are reproducible.
func New(g *topology.Graph, ids []int64, proto Protocol, medium radio.Medium, src *rng.Source) (*Engine, error) {
	if g.N() == 0 {
		return nil, errors.New("runtime: empty graph")
	}
	if len(ids) != g.N() {
		return nil, fmt.Errorf("runtime: %d ids for %d nodes", len(ids), g.N())
	}
	if medium == nil {
		return nil, errors.New("runtime: nil medium")
	}
	if src == nil {
		return nil, errors.New("runtime: nil rng source")
	}
	if err := proto.validate(g); err != nil {
		return nil, err
	}
	idx := make(map[int64]int, len(ids))
	for i, id := range ids {
		if j, dup := idx[id]; dup {
			return nil, fmt.Errorf("runtime: duplicate id %d on nodes %d and %d", id, j, i)
		}
		idx[id] = i
	}
	e := &Engine{
		g:        g,
		ids:      append([]int64(nil), ids...),
		idx:      idx,
		proto:    proto,
		medium:   medium,
		nodes:    make([]*Node, g.N()),
		daemon:   src.Split("daemon"),
		src:      src,
		out:      make([]Frame, g.N()),
		active:   make([]bool, g.N()),
		status:   make([]NodeStatus, g.N()),
		wakeAt:   make([]int, g.N()),
		sendMask: make([]bool, g.N()),
		head:     make([]bool, g.N()),
		aliveN:   g.N(),
	}
	e.aliveIdx.initAll(g.N())
	// One contiguous node arena for the initial population: cold-start
	// construction is part of every experiment's per-run cost, and n
	// individual Node allocations dominated it. Append still allocates
	// per node — growing the arena would move it under existing pointers.
	// Per-node rng streams exist only to draw DAG colors; without the DAG
	// nothing ever reads them, and skipping the splits saves a ~5 KB
	// math/rand state per node (almost half the construction bytes).
	arena := make([]Node, g.N())
	for i := range e.nodes {
		initNode(&arena[i], ids[i], proto, e.nodeStream(i))
		e.nodes[i] = &arena[i]
		e.sendMask[i] = true
		e.head[i] = true // cold start: every node heads itself
	}
	// Frontier stepping is on whenever the configuration supports it; the
	// whole population starts on the worklist (cold start: every guard is
	// armed).
	e.sparseOK = sparseEligible(medium, proto)
	e.sparse = e.sparseOK
	e.pendFlag = make([]bool, g.N())
	e.visit = make([]uint64, words(g.N()))
	e.pend = make([]int32, 0, g.N())
	if proto.CacheTTL > 0 {
		e.wheel = make([][]wheelEntry, proto.CacheTTL+1)
	}
	if e.sparse {
		for i := range e.nodes {
			e.pendFlag[i] = true
			e.pend = append(e.pend, int32(i))
		}
	}
	// Close disruption episodes only after a quiet stretch long enough for
	// TTL eviction to have flushed a vanished neighbor — otherwise a
	// departure would be declared "converged" before its cache entries even
	// expired.
	e.convWindow = 5
	if proto.CacheTTL+2 > e.convWindow {
		e.convWindow = proto.CacheTTL + 2
	}
	e.disrupt.changed = make([]bool, g.N())
	e.disrupt.siteSet = make([]bool, g.N())
	return e, nil
}

// nodeStream derives node i's private rng stream from the master source.
// Only the DAG draws per-node randomness (initial color, redraws after a
// collision or a crash); without it the stream is nil and the split is
// skipped entirely. Note each SplitN advances the master source by one
// draw, so the master's position differs between UseDag settings — safe
// today because node splits (construction and Append) are the master's
// only consumers and are skipped uniformly, but a new e.src consumer
// must not assume a UseDag-independent master position.
func (e *Engine) nodeStream(i int) *rng.Source {
	if !e.proto.UseDag {
		return nil
	}
	return e.src.SplitN("node", i)
}

// StepCount returns how many steps have executed.
func (e *Engine) StepCount() int { return e.step }

// LastChange returns the most recent step (or disruption) that changed
// shared state — the quiescence marker RunUntilStable polls. Callers
// implementing their own stabilization loop compare it against StepCount.
func (e *Engine) LastChange() int { return e.lastChange }

// Node returns the i-th node (read-only access for assertions).
func (e *Engine) Node(i int) *Node { return e.nodes[i] }

// Epoch returns a counter that advances whenever the shared state or the
// topology changed (a state-changing step, a lifecycle op, Corrupt, or
// any change to the graph's Version). Derived structures cached against
// an Epoch value are valid exactly while it is unchanged.
func (e *Engine) Epoch() uint64 { return e.epoch + e.g.Version() }

// IDs returns the node identifiers, indexed like the graph. The slice is
// the engine's own: callers must not modify or retain it (Append and
// Compact rewrite it).
func (e *Engine) IDs() []int64 { return e.ids }

// Index returns the dense index node id occupies and whether the engine
// knows the id (a compacted-away id is unknown from then on).
func (e *Engine) Index(id int64) (int, bool) {
	i, ok := e.idx[id]
	return i, ok
}

// SetPostStep installs a hook that runs at the end of every Step, after the
// guarded assignments (nil disables it). The hook receives the number of
// completed steps. A hook error is propagated by Step, but only after the
// protocol step itself has fully committed (guards applied, step counted,
// epoch advanced) — retrying Step runs a new step, it does not replay the
// failed one.
//
//selfstab:mutator
func (e *Engine) SetPostStep(fn func(step int) error) { e.postStep = fn }

// SetPreStep installs a hook that runs at the start of every Step, before
// any broadcast (nil disables it). The hook receives the number of
// completed steps; churn schedules use it to mutate the population inside
// the step loop, so a step always observes a consistent topology.
//
//selfstab:mutator
func (e *Engine) SetPreStep(fn func(step int) error) { e.preStep = fn }

// SetProbe attaches an instrumentation probe to the step path (nil
// detaches it). The probe must be a pure observer — it may time and
// count, never mutate engine state or feed values back (the obspure
// rule, statically enforced by internal/analyze). Attached or not, the
// execution is bit-identical; detached, the step path pays only a nil
// check per emission site. Call only between steps.
func (e *Engine) SetProbe(p obs.Probe) { e.probe = p }

// SetParallelism fixes the number of workers used for the per-node step
// phases. 0 (the default) sizes the pool to GOMAXPROCS. Results are
// identical for any value; the knob exists for benchmarking and for the
// determinism tests.
func (e *Engine) SetParallelism(workers int) {
	if workers < 0 {
		workers = 0
	}
	e.workers = workers
}

// SetDensityScale sets the multiplier guard R1 applies to node i's shared
// density (negative values clamp to 0). The default is 1 for every node;
// the first non-trivial call materializes the scale array. A changed scale
// re-arms the node's guards and re-broadcast, so the new value propagates
// like any other shared-variable change — the energy subsystem uses this
// to demote draining cluster-heads online. Call only between steps (it
// races with the parallel guard phase otherwise), exactly like the churn
// mutators.
//
//selfstab:mutator
func (e *Engine) SetDensityScale(i int, s float64) error {
	if err := e.checkIndex(i); err != nil {
		return err
	}
	if s < 0 {
		s = 0
	}
	if e.densityScale == nil {
		if s == 1 {
			return nil
		}
		e.densityScale = make([]float64, len(e.nodes))
		for j := range e.densityScale {
			e.densityScale[j] = 1
		}
	}
	if e.densityScale[i] == s {
		return nil
	}
	e.densityScale[i] = s
	if e.status[i] == StatusDead {
		return nil // inert slot; keep the stored scale for bookkeeping only
	}
	n := e.nodes[i]
	n.dirty = true      // the scaled density must be recomputed...
	n.frameDirty = true // ...and re-broadcast
	e.Activate(i)
	return nil
}

// DensityScale returns the multiplier guard R1 currently applies to node
// i's shared density (1 when no scale was ever set).
func (e *Engine) DensityScale(i int) float64 { return e.densityScaleOf(i) }

func (e *Engine) densityScaleOf(i int) float64 {
	if e.densityScale == nil {
		return 1
	}
	return e.densityScale[i]
}

// RunUntilStable steps the engine until the shared variables (color,
// density, head) of every node stay unchanged for window consecutive steps,
// or until maxSteps have run. It returns the stabilization step relative
// to the call: the last step at which anything changed (0 if already
// stable).
//
// Stability is tracked by the guards themselves: every guarded assignment
// reports whether it wrote a new value, so detecting quiescence costs no
// per-step state snapshot or comparison. A disruption occurring mid-run
// (a churn pre-step op, a corruption) counts as a change even before any
// shared variable moves — its protocol consequences may lag by up to the
// cache TTL, and declaring stability inside that lag would be premature.
//
//selfstab:mutator
func (e *Engine) RunUntilStable(maxSteps, window int) (int, error) {
	if window < 1 {
		window = 1
	}
	start := e.step
	for s := 1; s <= maxSteps; s++ {
		if err := e.Step(); err != nil {
			return 0, err
		}
		if e.step-e.lastChange >= window {
			if e.lastChange <= start {
				return 0, nil
			}
			return e.lastChange - start, nil
		}
	}
	return 0, ErrNotStabilized
}

// Assignment converts the current head/parent choices into index form for
// comparison against the cluster oracle. Identifiers that do not resolve to
// a node (possible only in corrupted, not-yet-stabilized states) map to -1.
func (e *Engine) Assignment() *cluster.Assignment {
	return e.AssignmentInto(new(cluster.Assignment))
}

// AssignmentInto is Assignment written into a, reusing the capacity of its
// slices: a caller that re-reads the assignment every epoch allocates once.
func (e *Engine) AssignmentInto(a *cluster.Assignment) *cluster.Assignment {
	a.Parent = slices.Grow(a.Parent[:0], len(e.nodes))[:len(e.nodes)]
	a.Head = slices.Grow(a.Head[:0], len(e.nodes))[:len(e.nodes)]
	for i, n := range e.nodes {
		a.Parent[i] = e.indexOf(n.parent)
		a.Head[i] = e.indexOf(n.headID)
	}
	return a
}

func (e *Engine) indexOf(id int64) int {
	if i, ok := e.idx[id]; ok {
		return i
	}
	return -1
}

// NeighborView returns the identifiers currently in node i's neighbor
// cache — its protocol-level view of Np, which may lag the true topology
// under loss, mobility or corruption.
func (e *Engine) NeighborView(i int) ([]int64, error) {
	if i < 0 || i >= len(e.nodes) {
		return nil, fmt.Errorf("runtime: node index %d out of range", i)
	}
	n := e.nodes[i]
	out := make([]int64, 0, len(n.cache))
	for j := range n.cache {
		out = append(out, n.cache[j].frame.ID) // cache is id-sorted
	}
	return out, nil
}

// DagLocallyUnique reports whether the current colors are locally unique on
// the current graph — the legitimacy predicate of Algorithm N1.
func (e *Engine) DagLocallyUnique() bool {
	for u := 0; u < e.g.N(); u++ {
		for _, v := range e.g.Neighbors(u) {
			if v > u && e.nodes[u].tieID == e.nodes[v].tieID {
				return false
			}
		}
	}
	return true
}

// CorruptionKind selects the fault model for Corrupt.
type CorruptionKind int

const (
	// CorruptState randomizes the node's own shared variables.
	CorruptState CorruptionKind = 1 << iota
	// CorruptCache randomizes cached neighbor entries (stale/garbage
	// caches are the transient faults of the shared-variable scheme).
	CorruptCache
	// CorruptAll is both.
	CorruptAll = CorruptState | CorruptCache
)

// Corrupt injects transient faults: each node is independently hit with
// probability frac; a hit node has the selected parts of its state replaced
// with arbitrary garbage (including identifiers that do not exist in the
// network). This is the "arbitrary initial state" of the self-stabilization
// model.
//
// frac is clamped to [0, 1]: values above 1 hit every node, values at or
// below 0 are a guaranteed no-op (no epoch bump, no rng draws). Hit nodes
// are recorded as a ChurnFault disruption in the convergence ledger.
//
//selfstab:mutator
func (e *Engine) Corrupt(frac float64, kind CorruptionKind, src *rng.Source) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	e.epoch++
	garbageID := func() int64 { return src.Int63()%2000 - 1000 }
	for i, n := range e.nodes {
		if src.Float64() >= frac {
			continue
		}
		if e.status[i] == StatusDead {
			continue // nothing left to corrupt; the slot is inert
		}
		e.markDisruption(ChurnFault, i, nil)
		e.markChanged(i)
		n.dirty = true      // corrupted inputs must be re-evaluated...
		n.frameDirty = true // ...and re-broadcast
		e.Activate(i)
		if kind&CorruptState != 0 {
			n.tieID = garbageID()
			n.density = src.Float64() * 100
			n.headID = garbageID()
			n.parent = garbageID()
			e.head[i] = n.IsHead() // garbage can be the node's own id
		}
		if kind&CorruptCache != 0 {
			n.linksOK = false // relayed identifiers are about to change
			// The node's private copies are carved from one slab per
			// element type, sized up front: two allocations per hit node at
			// any degree (three under fusion), not one or two per cached
			// neighbor.
			nIDs, nVals := 0, 0
			for j := range n.cache {
				nIDs += len(n.cache[j].frame.Nbrs.ids())
				nVals += len(n.cache[j].frame.Nbrs.vals())
			}
			private := make([]NbrList, len(n.cache))
			idSlab := make([]int64, 0, nIDs)
			var valSlab []NbrValue
			if nVals > 0 {
				valSlab = make([]NbrValue, 0, nVals)
			}
			// The cache is id-sorted, so iteration consumes the rng stream
			// deterministically (ascending neighbor id).
			for j := range n.cache {
				f := &n.cache[j].frame
				f.TieID = garbageID()
				f.Density = src.Float64() * 100
				f.HeadID = garbageID()
				if len(f.Nbrs.ids()) > 0 {
					// The cached list aliases the sender's shared published
					// one; privatize before scribbling so one node's
					// corruption cannot leak into other receivers' caches
					// (or the sender's own outgoing frame). Each copy's
					// capacity ends where the next begins, so an append on
					// one reallocates instead of writing into its neighbor.
					// The scrambled slot becomes a garbage head claim; the
					// draws are the same whether or not values are relayed.
					l := &private[j]
					idSlab = append(idSlab, f.Nbrs.IDs...)
					l.IDs = idSlab[len(idSlab)-len(f.Nbrs.IDs) : len(idSlab) : len(idSlab)]
					valSlab = append(valSlab, f.Nbrs.Vals...)
					l.Vals = valSlab[len(valSlab)-len(f.Nbrs.Vals) : len(valSlab) : len(valSlab)]
					k := src.Intn(len(l.IDs))
					l.IDs[k] = garbageID()
					density := src.Float64() * 100
					if k < len(l.Vals) {
						l.Vals[k].HeadID = l.IDs[k]
						l.Vals[k].Density = density
					}
					f.Nbrs = l
				}
			}
		}
	}
}
