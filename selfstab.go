// Package selfstab is a library reproduction of "Self-stabilization in
// self-organized Multihop Wireless Networks" (Mitton, Fleury, Guérin
// Lassous, Tixeuil — ICDCS 2005 / INRIA RR-5426): self-stabilizing,
// density-driven clustering for multihop wireless networks.
//
// A Network simulates wireless nodes running the paper's protocol stack:
// neighbor discovery by periodic local broadcast, the density metric
// (links/nodes over the closed 1-neighborhood), cluster-head election by
// the total order ≺ (density first, identifier tie-break), the
// constant-height DAG color space that makes stabilization time
// independent of network diameter, and the stability improvements of
// Section 4.3 (incumbent-head stickiness and 2-hop cluster fusion).
//
// The protocol is self-stabilizing: start it in any state — or corrupt a
// running network with InjectFaults — and it converges back to a
// legitimate clustering. Time advances in the paper's Δ(τ) steps via Step
// or Stabilize.
//
// The clustering exists to make hierarchical routing scale, and the
// simulator closes that loop: Route answers path queries over the live
// clustering, and AttachTraffic installs a packet-level data plane — CBR,
// Poisson and many-to-one hotspot flows, per-node bounded queues, cached
// hierarchical forwarding — whose TrafficStats ledger reports delivery
// ratio, path stretch versus flat shortest paths, latency percentiles and
// the per-node load concentration the hierarchy creates on heads and
// gateways.
//
// The population itself is dynamic: AddNodes, RemoveNodes, CrashNodes,
// SleepNodes and WakeNodes change the node set at runtime, and
// AttachChurn drives a seeded schedule of Poisson arrivals, departures,
// crashes and duty-cycling as a pre-step phase of the same loop. Every
// disruption is tracked in the convergence ledger (ConvergenceStats):
// steps until the network re-stabilized and how far the change spread in
// hops — the paper's self-stabilization and locality claims, measured
// per event. The traffic plane survives churn: packets addressed to dead
// or sleeping endpoints become accounted DropsDeadEndpoint drops. Under
// sustained add/remove churn, Compact (or a SetAutoCompact threshold)
// recycles the index slots of departed nodes so live memory tracks the
// operating population instead of cumulative arrivals.
//
// Energy closes the loop (AttachEnergy): every node carries a battery
// drained per step by its role (cluster-heads idle hotter than members),
// by the data plane's per-packet tx/rx activity and by duty-cycling
// (sleeping is cheap — SleepNodes saves real energy). A depleted battery
// kills its node through the churn machinery, so lifetime is measurable
// end to end: load drains batteries, depletion is a departure episode in
// the convergence ledger, and EnergyStats reports first-death step and
// the per-cause drain breakdown. Energy-aware head rotation
// (EnergyConfig.Rotation) scales each node's shared density by its
// quantized remaining charge, demoting draining heads online — the
// paper's Section 6 future work running live, with Verify checking the
// correspondingly weighted oracle.
//
// The robustness claim is tested under adversaries, not just benign
// churn: the adversarial workload plane mounts botnet CBR floods against
// the current cluster-heads (FloodHeads), byzantine density inflation
// that captures headship through the honest ≺ election (InflateDensity),
// and sybil join bursts packed around a victim (SybilJoin). The defenses
// are measurable rather than rhetorical — SetTrafficDefense installs
// per-head token-bucket admission control and per-source rate limiting
// whose refusals are first-class drop reasons in the traffic ledger
// (DropsAdmission, DropsRateLimit), and ImplausibleNodes/EvictNodes
// detect and expel density liars via a structural bound (a degree-d
// node's true density cannot exceed (d+1)/2), with each eviction's cost
// opening a ChurnAttack episode in the convergence ledger. Attack and
// defense ops are journaled like any other mutation, so an attacked
// world snapshots and replays bit-identically; internal/attack runs the
// seeded twin-world comparison (selfstab-sim attack) that scores each
// defense as an undefended-vs-defended delta.
//
// A world is checkpointable: every public mutation flows through a
// single op-apply chokepoint and is journaled, so WriteSnapshot emits a
// versioned document (internal/snapshot) — the construction blueprint
// (deployment + options, seed included) plus the step-stamped op journal
// — and ReadSnapshot rebuilds through the same constructor path,
// replaying the journal interleaved with stepping, to a bit-identical
// world: states, clusters and every ledger, at any worker count. Internal
// randomness (churn schedules, traffic workloads) reproduces from the
// seed's split streams and is not journaled. The internal/serve package
// runs a Network as a long-lived service stepping in scaled real time
// behind an HTTP/JSON API (selfstab-sim serve).
//
// The world is observable without being perturbable: AttachProbe installs
// an obs.Probe that receives step boundaries, per-phase spans and engine
// counters from inside the step path. The probe contract has two halves,
// both enforced. With no probe attached the instrumentation costs nothing
// — the nil-probe path adds zero allocations and no measurable time
// (pinned by test and benchmark gate). With one attached, the engine is
// write-only toward it and the probe must never feed back: callbacks may
// not call into engine packages or mutate engine state (the obspure
// analyzer checks this statically), so a traced run is bit-identical to an
// untraced twin. Probe attachment is deliberately not journaled — replay
// without the probe reproduces the same trajectory. NewCollector's
// lock-free sink aggregates records into Prometheus-style histograms
// (served at /metrics) and Chrome trace-event JSON (WriteTrace,
// selfstab-sim trace, POST /trace).
//
// Minimal use:
//
//	net, err := selfstab.NewPoissonNetwork(1000, selfstab.WithRange(0.1))
//	if err != nil { ... }
//	if _, err := net.Stabilize(1000); err != nil { ... }
//	for _, c := range net.Clusters() {
//		fmt.Println(c.HeadID, len(c.Members))
//	}
//
// # Performance
//
// The simulation hot path is engineered so that per-step cost tracks the
// amount of protocol activity, not the network size times allocator
// pressure:
//
//   - One step, visiting only what can change. The protocol is locally
//     quiescent after stabilization: a node's guards can only produce
//     new output when its own variables or its neighbor cache changed.
//     The engine therefore keeps a worklist — seeded by guard firings,
//     churn transitions, corruption, density-scale writes and
//     incremental topology deltas (the grid index reports exactly the
//     nodes whose adjacency an update touched) — and a step visits only
//     worklist nodes plus the radio neighborhoods of nodes about to
//     broadcast changed content. A stabilized network steps in O(1),
//     flat in N (BenchmarkQuiescentStep at 1k, 10k and 100k nodes,
//     0 allocs/op), instead of the full scan's O(N)
//     (BenchmarkQuiescentStepDense1k at 1k alone; BENCH_scale.txt holds
//     the measured times of both);
//     a locally perturbed network steps in O(frontier × density)
//     (BenchmarkStep100k). There is one step body; what varies is the
//     set of nodes it visits, and the engine picks that from what it
//     observes, never from a switch: every node, every step, where the
//     medium is lossy or the daemon randomized (both draw per-node
//     randomness every step, so no node provably quiesces); the
//     expanded worklist otherwise. Either set is one list in ascending
//     slot order, so a worklist that holds most of the population (mass
//     corruption, a blackout) walks memory as the full scan does
//     (BenchmarkStepSaturated pins the regime; BenchmarkStep100kFrontier
//     sweeps the worklist size up to it). The two are bit-identical
//     wherever both can run — pinned by a randomized mixed-trace oracle
//     against the full scan at 1 and 4 workers under -race
//     (TestSparseMatchesDenseMixedTrace).
//
//   - Publish only what the guards read, interned. A broadcast relays
//     the sender's neighbor identifiers — all Definition 1 (guard R1)
//     reads — and relays the neighbors' tie identifier, density and head
//     only under WithFusion, whose 2-hop rule is their one reader. The
//     published list is immutable: frame assembly reuses it while its
//     content is unchanged, and receivers cache it by reference, so
//     "this neighbor's list is the one I already counted" is a pointer
//     comparison. Each node keeps its R1 link count current by delta as
//     lists change and neighbors come and go, and recounts only after
//     corruption or when most of its neighbors relist at once; a head or
//     density change therefore wakes the 1-hop neighborhood that can
//     observe it, not the 2-hop one. Steady-state per-node memory is
//     O(degree) words instead of O(degree²), which is what keeps the
//     million-node scenario (BenchmarkStep1M) inside a commodity heap.
//
//   - O(log N) churn victim selection and O(1) population counts. A
//     Fenwick-tree order-statistic index over the alive set backs the
//     churn schedule's random victim picks (NthAlive) and Population,
//     replacing O(N) status scans that dominated large quiescent worlds.
//
//   - Dead-slot compaction. Index slots of departed nodes are never
//     reused on their own — every per-node array stays aligned — so
//     sustained add/remove churn would grow memory with cumulative
//     arrivals; an explicit Network.Compact (or a SetAutoCompact
//     dead-fraction threshold) recycles dead slots under one monotone
//     index remap (internal/slot: one Remap, which every owner applies
//     through slot.Apply and slot.Renumber) propagated to every index
//     cache — the grid's positions
//     and graph, the engine's arrays and identifiers (the churn
//     schedule's wake deadlines among them), traffic queues and flow
//     endpoints, energy arrays, the open convergence episode — so
//     long-running churn simulations
//     hold memory proportional to the operating population. Because
//     survivors keep their relative order, every ledger is bit-identical
//     to a run that never compacted (pinned by the determinism matrix's
//     compaction cells; see Compact for the three per-slot draws that
//     are the exception);
//     BenchmarkCompact measures the remap at 10k nodes with 20% dead.
//
//   - Typed flat delivery. The radio layer never boxes frames: a medium
//     only decides which (sender, receiver) pairs deliver and records
//     them in a CSR-style flat inbox (one offsets array, one sender-index
//     array, both reused every step). The engine keeps exactly one typed
//     outgoing frame per node in a reusable arena, so a steady-state step
//     performs O(1) amortized allocations instead of O(edges).
//
//   - Per-node neighbor caches are flat, id-sorted entry slices. Frame
//     assembly walks them in order (no sort, no hashing), the density
//     rule (R1) counts 2-hop links with merge scans over the sorted
//     lists, and a cache refresh that does not change any advertised
//     value is a single comparison with no copy.
//
//   - Guard skipping via dirty tracking. The guarded assignments N1, R1
//     and R2 are deterministic functions of a node's cache and its own
//     shared variables. Each node tracks whether those inputs changed;
//     clean nodes skip guard evaluation entirely, so a stabilized
//     network steps in time proportional to delivered frames. The same
//     tracking lets Stabilize detect quiescence without snapshotting
//     state each step.
//
//   - Parallel phases. Frame assembly and ingest+guards are per-node
//     independent and run on a GOMAXPROCS-sized worker pool. Randomness
//     that must stay ordered (medium losses, daemon scheduling) is drawn
//     sequentially between the parallel phases, and per-node draws (DAG
//     colors) come from per-node streams, so results are bit-identical
//     for a fixed seed at any parallelism — the determinism test in
//     internal/runtime pins this.
//
//   - Incremental topology under mobility and churn. SetPositions keeps
//     a dense uniform grid index (topology.GridIndex) alive across calls
//     and recomputes only moved nodes' cells and edges rather than
//     rebuilding the unit-disk graph, allocation-free at steady state.
//     Node churn uses the same index incrementally: Append wires a new
//     node's edges in O(local density), Deactivate/Reactivate detach and
//     reattach a slot's edges with their capacity retained (the engine
//     calls them itself in each lifecycle transition), so the churn
//     pre-step phase allocates nothing at steady state for
//     crash/sleep/wake churn (pinned by TestChurnPreStepAllocationFree;
//     BenchmarkChurnStep1000 measures a 1000-node step under ~1%/step
//     churn). The traffic stretch baseline is an exact A* search toward
//     the destination, bounded below by straight-line distance over the
//     radio range (no edge is longer than the range), over scratch kept on
//     the Network: it reads about a quarter of the edges a breadth-first
//     search reads and allocates nothing (TestFlatDistMatchesBFS,
//     BenchmarkFlatDist). It runs at delivery, once per flow per topology
//     version, so only packets that arrive pay for it
//     (TestStretchBaselineMatchesBFSAtDelivery).
//
//   - A routing table that costs what the packets touch. One hierarchical
//     table serves Route and the traffic data plane. When the engine's
//     epoch moved it is reset in place — an O(N+E) skeleton over reused
//     buffers — and its next-hop trees fill as queries ask,
//     with the answers of a table built in full (see internal/routing;
//     TestLiveTableMatchesFreshBuild pins the in-place reset through
//     churn, compaction, faults and mobility).
//     BenchmarkTrafficStepMovingEpoch2000 steps 2 000 nodes whose epoch
//     moves every step; BenchmarkRouteCached is a route query on a
//     quiescent network, a table walk and two allocations.
//
//   - A traffic phase that pays for its packets. The data plane attached
//     by AttachTraffic runs as a post-guard phase of the same step loop:
//     packets live in fixed-capacity per-node rings, the forwarding pass
//     walks a bitset of the nodes holding packets (N/64 words, no sort),
//     one-hop moves go onto one reused staging list, forwarding asks the
//     routing table's NextHop primitive once per flow, hop index and
//     epoch and reads a per-flow memo otherwise (see internal/traffic),
//     and latencies accumulate in
//     a histogram that only grows to the maximum observed value. All
//     workload randomness is drawn sequentially from a dedicated stream,
//     so traffic statistics — like the protocol itself — are bit-identical
//     for a fixed seed at any parallelism (pinned by TestDeterminismMatrix).
//     BenchmarkTrafficStep1000 (1000 nodes, 100+ flows) adds zero
//     steady-state allocations over the bare protocol step;
//     BenchmarkTrafficStep/n=20000 is the layer at the bench/
//     "dataplane" workload's size and flow mix.
//
//   - An allocation-free energy phase. The battery model attached by
//     AttachEnergy runs after the traffic phase of the same step: one
//     sequential pass over preallocated per-node arrays charges role idle
//     costs and per-packet tx/rx deltas read straight off the data
//     plane's counters (no copies, one read a step), and rotation
//     re-quantizes a battery only when it falls below its level's
//     precomputed floor, updating the engine's density scales only at
//     quantized level crossings. The pass
//     allocates nothing (TestEnergyPhaseAllocationFree) and, being
//     sequential, its ledger is bit-identical whatever worker count the
//     protocol engine under it runs at (TestDeterminismMatrix);
//     BenchmarkEnergyStep measures the full step with convergecast
//     traffic and rotation enabled at 1000, 20 000 and 50 000 nodes.
//
// The benchmark suite quantifies all of this. BenchmarkStep1000 steps a
// stabilized 1000-node network, a quiescent no-op under the worklist, so
// it pins allocation-flatness, not throughput; the BenchmarkQuiescentStep
// family and BenchmarkStep100k pin the worklist's flat-in-N claim,
// BenchmarkStep100kFrontier the cost over worklist sizes and
// BenchmarkStep1M the million-node memory budget;
// BenchmarkColdStabilize and BenchmarkRecovery measure convergence
// phases where guards actually run; the experiment-level benchmarks in
// bench_test.go regenerate the paper's tables. scripts/bench.sh runs
// the core suites, emits BENCH_step.json, BENCH_traffic.json,
// BENCH_churn.json, BENCH_energy.json and BENCH_scale.json for the
// performance trajectory, and gates on >20% step-time regressions
// against the committed baselines (scripts/benchgate). The measured
// numbers live in those files, each headed by its commit, host and
// GOMAXPROCS, not in this comment.
package selfstab

import (
	"errors"
	"fmt"
	"slices"

	"selfstab/internal/cluster"
	"selfstab/internal/dag"
	"selfstab/internal/deploy"
	"selfstab/internal/energy"
	"selfstab/internal/geom"
	"selfstab/internal/obs"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/routing"
	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
	"selfstab/internal/topology"
	"selfstab/internal/traffic"
)

// Point is a node position in the deployment region (the unit square by
// default; 1 unit = 1 km at the paper's scale). It is geom.Point.
type Point = geom.Point

// Option customizes a Network at construction. Options write the
// blueprint record the snapshot stores (snapshot.Options), so an option
// that shapes the trajectory cannot escape the checkpoint.
type Option func(*snapshot.Options) error

func defaults() snapshot.Options {
	return snapshot.Options{Seed: 1, Range: 0.1, Tau: 1, Activation: 1, StableWindow: 5}
}

// WithSeed fixes the random seed; identical seeds reproduce identical
// networks and protocol executions.
func WithSeed(seed int64) Option {
	return func(c *snapshot.Options) error {
		c.Seed = seed
		return nil
	}
}

// WithRange sets the radio transmission range in region units (the paper
// sweeps 0.05-0.1). Default 0.1.
func WithRange(r float64) Option {
	return func(c *snapshot.Options) error {
		if r <= 0 || r > 1 {
			return fmt.Errorf("selfstab: range must be in (0, 1], got %v", r)
		}
		c.Range = r
		return nil
	}
}

// WithDAG enables the constant-height DAG construction (Algorithm N1):
// metric ties break on small locally-unique colors instead of global
// identifiers, bounding stabilization time by a constant independent of
// the network diameter. gamma is the color-space size; pass 0 to use the
// paper's simulation choice delta².
func WithDAG(gamma int64) Option {
	return func(c *snapshot.Options) error {
		if gamma < 0 {
			return fmt.Errorf("selfstab: negative gamma %d", gamma)
		}
		c.DAG = true
		c.Gamma = gamma
		return nil
	}
}

// WithStickyHeads enables the Section 4.3 incumbency rule: on density
// ties a standing cluster-head wins over a challenger.
func WithStickyHeads() Option {
	return func(c *snapshot.Options) error {
		c.Sticky = true
		return nil
	}
}

// WithFusion enables the Section 4.3 fusion rule: of two cluster-heads
// within two hops the ≺-lesser dissolves its cluster into the greater's,
// guaranteeing heads are at least three hops apart.
func WithFusion() Option {
	return func(c *snapshot.Options) error {
		c.Fusion = true
		return nil
	}
}

// WithTau sets the per-link frame delivery probability of the radio medium
// (the paper's CSMA/CA abstraction). Default 1 (lossless).
//
//selfstab:testref TestDeterminismMatrix's tau0.7 world, the paper's lossy medium, until a CLI flag reaches it
func WithTau(tau float64) Option {
	return func(c *snapshot.Options) error {
		if tau <= 0 || tau > 1 {
			return fmt.Errorf("selfstab: tau must be in (0, 1], got %v", tau)
		}
		c.Tau = tau
		return nil
	}
}

// WithSlottedRadio replaces the Bernoulli loss model with an explicit
// slotted-CSMA medium of the given slot count: collisions — and hence τ —
// become emergent instead of assumed.
//
//selfstab:testref TestDeterminismMatrix's slotted32 world, the paper's collision model, until a CLI flag reaches it
func WithSlottedRadio(slots int) Option {
	return func(c *snapshot.Options) error {
		if slots < 1 {
			return fmt.Errorf("selfstab: need at least 1 slot, got %d", slots)
		}
		c.Slots = slots
		return nil
	}
}

// WithDaemon sets the activation probability of the randomized daemon:
// each step, each node evaluates its guarded assignments with probability
// p (broadcast and reception always happen). 1 (default) is the
// synchronous daemon; lower values model slower, unsynchronized nodes —
// self-stabilization holds regardless.
//
//selfstab:testref TestDeterminismMatrix's daemon0.6 world, the paper's randomized daemon, until a CLI flag reaches it
func WithDaemon(p float64) Option {
	return func(c *snapshot.Options) error {
		if p <= 0 || p > 1 {
			return fmt.Errorf("selfstab: activation probability must be in (0, 1], got %v", p)
		}
		c.Activation = p
		return nil
	}
}

// WithStableWindow sets how many consecutive unchanged steps Stabilize
// requires before declaring the network stable. The default is 5; lossy
// media (low WithTau, few WithSlottedRadio slots) and sparse daemons can
// produce accidental quiet stretches, so such experiments should raise
// the window to avoid declaring stability on a lull.
func WithStableWindow(k int) Option {
	return func(c *snapshot.Options) error {
		if k < 1 {
			return fmt.Errorf("selfstab: stable window must be >= 1, got %d", k)
		}
		c.StableWindow = k
		return nil
	}
}

// WithCacheTTL evicts neighbor-table entries not refreshed for ttl steps.
// Needed under mobility and churn; 0 (default) never evicts.
func WithCacheTTL(ttl int) Option {
	return func(c *snapshot.Options) error {
		if ttl < 0 {
			return fmt.Errorf("selfstab: negative ttl %d", ttl)
		}
		c.CacheTTL = ttl
		return nil
	}
}

// WithRowMajorIDs assigns identifiers increasing left-to-right and
// bottom-to-top — the paper's adversarial distribution for which
// identifier tie-breaking degenerates (Table 5). Default is a random
// permutation.
func WithRowMajorIDs() Option {
	return func(c *snapshot.Options) error {
		c.RowMajorIDs = true
		return nil
	}
}

// WithIDs supplies explicit unique node identifiers (overrides
// WithRowMajorIDs). Length must match the node count.
//
//selfstab:testref ExampleNewNetwork's checked output and TestJournalOwnsItsMemory's explicit ids
func WithIDs(ids []int64) Option {
	return func(c *snapshot.Options) error {
		c.IDs = append([]int64(nil), ids...)
		return nil
	}
}

// Network is a simulated multihop wireless network running the clustering
// protocol stack.
//
// Each per-node fact has one owner: the grid index holds the positions
// and the unit-disk graph, whose Version is the topology epoch the
// routing and stretch caches key on; the step engine holds the
// identifiers and the id→index map. The Network reads them there and
// keeps no copies.
type Network struct {
	region geom.Rect
	grid   *topology.GridIndex // persistent unit-disk index for SetPositions
	engine *runtime.Engine
	src    *rng.Source

	// The hierarchical routing table shared by Route and the traffic data
	// plane. Its skeleton is rebuilt, from routeAsg's reused
	// slices, only when the engine's epoch moved (a state-changing step,
	// fault injection, a topology change); its next-hop trees fill as
	// queries ask. See hierTable.
	routeTab      *routing.Hierarchical //selfstab:cache
	routeTabEpoch uint64                //selfstab:cache
	routeAsg      cluster.Assignment    //selfstab:cache

	// Scratch of flatDist, the path-stretch baseline the traffic plane
	// queries per flow: distMark[v].gen == distGen marks v reached by the
	// current search, distMark[v].g is then its hop count from the source,
	// and distOpen[f%3][h] lists the open nodes of level f whose bound is h.
	distMark []distMark   //selfstab:cache
	distGen  uint32       //selfstab:cache
	distOpen [3][][]int32 //selfstab:cache

	// Post-step phases, driven by stepPhases in order: traffic moves
	// packets, then energy charges them. The attach flags track whether a
	// phase is currently running; the engines stay readable after detach.
	traffic   *traffic.Engine // attached data plane (nil until AttachTraffic)
	trafficOn bool
	energy    *energy.Engine // attached battery model (nil until AttachEnergy)
	energyOn  bool

	// probe is the attached instrumentation sink (nil when detached); it
	// fans out to the engine and any attached subsystems. Pure-observer
	// state, never journaled: a replay without it is bit-identical.
	probe obs.Probe

	nextID        int64       // next identifier handed to a node added at runtime
	churn         *churnState // attached churn schedule (nil until AttachChurn)
	churnAttached bool        // schedule currently driving the pre-step phase
	autoCompact   float64     // dead-slot fraction that triggers Compact (0: never)

	// Snapshot support: the construction blueprint — deployment and
	// resolved options, the latter also what the running world consults —
	// and the journal of every world mutation (see journal.go). Together
	// with the step count they are the whole checkpoint: WriteSnapshot
	// serializes exactly these, and ReadSnapshot replays them.
	deploy snapshot.Deployment
	cfg    snapshot.Options
	oplog  []snapshot.Op
}

// NewNetwork deploys nodes at explicit positions in the unit square.
//
//selfstab:testref ExampleNewNetwork's checked output and the explicit rows of TestSnapshotRoundTripEveryConstructor and TestJournalOwnsItsMemory
func NewNetwork(positions []Point, opts ...Option) (*Network, error) {
	cfg, err := apply(opts)
	if err != nil {
		return nil, err
	}
	return construct(snapshot.Deployment{Kind: snapshot.DeployExplicit, Points: positions}, cfg)
}

// NewRandomNetwork deploys exactly n uniformly random nodes.
func NewRandomNetwork(n int, opts ...Option) (*Network, error) {
	cfg, err := apply(opts)
	if err != nil {
		return nil, err
	}
	return construct(snapshot.Deployment{Kind: snapshot.DeployRandom, N: n}, cfg)
}

// NewPoissonNetwork deploys a Poisson point process of the given intensity
// (expected nodes per unit area; the paper's evaluation uses 1000).
func NewPoissonNetwork(intensity float64, opts ...Option) (*Network, error) {
	cfg, err := apply(opts)
	if err != nil {
		return nil, err
	}
	return construct(snapshot.Deployment{Kind: snapshot.DeployPoisson, Intensity: intensity}, cfg)
}

// NewHotspotNetwork deploys n nodes concentrated around k random hotspots
// (Gaussian spread as a fraction of the region extent) — the heterogeneous
// "disaster area" scenario from the paper's introduction, where responders
// cluster around incident sites and the density metric elects one head
// per site rather than splitting co-located groups.
//
//selfstab:testref the hotspot row of TestSnapshotRoundTripEveryConstructor
func NewHotspotNetwork(n, k int, spread float64, opts ...Option) (*Network, error) {
	cfg, err := apply(opts)
	if err != nil {
		return nil, err
	}
	return construct(snapshot.Deployment{Kind: snapshot.DeployHotspot, N: n, Hotspots: k, Spread: spread}, cfg)
}

// NewGridNetwork deploys a rows x cols lattice (the paper's grid scenario;
// combine with WithRowMajorIDs to reproduce the adversarial Table 5 case).
func NewGridNetwork(rows, cols int, opts ...Option) (*Network, error) {
	cfg, err := apply(opts)
	if err != nil {
		return nil, err
	}
	return construct(snapshot.Deployment{Kind: snapshot.DeployGrid, Rows: rows, Cols: cols}, cfg)
}

func apply(opts []Option) (snapshot.Options, error) {
	cfg := defaults()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// construct is the single construction path, shared by the public
// constructors and snapshot restore. It realizes the deployment from the
// descriptor, consuming the master seed's split streams in a fixed order,
// so rebuilding from a snapshot blueprint lands on exactly the world the
// original constructor produced — including every per-node rng stream.
func construct(dep snapshot.Deployment, cfg snapshot.Options) (*Network, error) {
	src := rng.New(cfg.Seed)
	var pts []geom.Point
	switch dep.Kind {
	case snapshot.DeployExplicit:
		if len(dep.Points) == 0 {
			return nil, errors.New("selfstab: no positions")
		}
		region := geom.UnitSquare()
		for i, p := range dep.Points {
			if !region.Contains(p) {
				return nil, fmt.Errorf("selfstab: position %d (%v, %v) outside the unit square", i, p.X, p.Y)
			}
		}
		// The blueprint keeps its own copy: the caller's slice must not
		// alias the checkpoint (buildWith copies once more for the world).
		dep.Points = slices.Clone(dep.Points)
		pts = dep.Points
	case snapshot.DeployRandom:
		if dep.N < 1 {
			return nil, fmt.Errorf("selfstab: need at least one node, got %d", dep.N)
		}
		pts = deploy.Uniform(dep.N, geom.UnitSquare(), src.Split("deploy"))
	case snapshot.DeployPoisson:
		if dep.Intensity <= 0 {
			return nil, fmt.Errorf("selfstab: intensity must be positive, got %v", dep.Intensity)
		}
		pts = deploy.Poisson(dep.Intensity, geom.UnitSquare(), src.Split("deploy"))
		for len(pts) == 0 {
			pts = deploy.Poisson(dep.Intensity, geom.UnitSquare(), src.Split("deploy-retry"))
		}
	case snapshot.DeployHotspot:
		if dep.N < 1 {
			return nil, fmt.Errorf("selfstab: need at least one node, got %d", dep.N)
		}
		var err error
		if pts, err = deploy.Hotspots(dep.N, dep.Hotspots, dep.Spread, geom.UnitSquare(), src.Split("deploy")); err != nil {
			return nil, err
		}
	case snapshot.DeployGrid:
		if dep.Rows < 1 || dep.Cols < 1 {
			return nil, fmt.Errorf("selfstab: invalid grid %dx%d", dep.Rows, dep.Cols)
		}
		pts = deploy.Grid(dep.Rows, dep.Cols, geom.UnitSquare())
	default:
		return nil, fmt.Errorf("selfstab: unknown deployment kind %q", dep.Kind)
	}
	n, err := buildWith(cfg, pts, src)
	if err != nil {
		return nil, err
	}
	n.deploy = dep
	return n, nil
}

func buildWith(cfg snapshot.Options, pts []geom.Point, src *rng.Source) (*Network, error) {
	n := &Network{
		cfg:    cfg,
		region: geom.UnitSquare(),
		src:    src,
	}
	ids := n.assignIDs(pts)
	// The unit-disk index is anchored on the deployment region (not the
	// initial point spread) and persists for the Network's lifetime, so
	// SetPositions can repair the topology incrementally wherever the
	// nodes later roam.
	n.grid = topology.NewGridIndexInRegion(pts, cfg.Range, n.region)
	g := n.grid.Graph()

	proto := runtime.Protocol{
		Order:          n.order(),
		Fusion:         cfg.Fusion,
		CacheTTL:       cfg.CacheTTL,
		ActivationProb: cfg.Activation,
	}
	if cfg.DAG {
		proto.UseDag = true
		proto.Gamma = cfg.Gamma
		if proto.Gamma == 0 {
			proto.Gamma = dag.PaperGamma(g)
		}
	}
	medium, err := n.makeMedium()
	if err != nil {
		return nil, err
	}
	// The engine validates the identifiers (count, uniqueness) and keeps
	// its own copy.
	engine, err := runtime.New(g, ids, proto, medium, src.Split("engine"))
	if err != nil {
		return nil, err
	}
	n.engine = engine
	engine.SetConvergenceWindow(max(cfg.StableWindow, cfg.CacheTTL+2))
	// Feed incremental topology deltas straight into the frontier: every
	// node whose radio adjacency changes under mobility or churn is
	// re-examined on the next step, and only those (see SetPositions).
	n.grid.SetOnAdjacencyChange(engine.Activate)
	// The engine detaches and reattaches a node's edges itself, at the
	// point each lifecycle transition captures its disruption sites.
	engine.SetGrid(n.grid)
	// The step hooks are installed once; each plane's flag (churnAttached,
	// trafficOn, energyOn) is the one record of whether it runs.
	engine.SetPreStep(n.churnPreStep)
	engine.SetPostStep(n.stepPhases)
	for _, id := range ids {
		if id >= n.nextID {
			n.nextID = id + 1
		}
	}
	return n, nil
}

// assignIDs returns the identifiers the configuration gives the nodes at
// pts: the explicit list, row-major order, or (the default) a random
// permutation drawn from the "ids" stream.
func (n *Network) assignIDs(pts []geom.Point) []int64 {
	switch {
	case n.cfg.IDs != nil:
		return n.cfg.IDs
	case n.cfg.RowMajorIDs:
		return deploy.AssignIDs(pts, deploy.IDRowMajor, nil)
	default:
		return deploy.AssignIDs(pts, deploy.IDRandom, n.src.Split("ids"))
	}
}

func (n *Network) makeMedium() (radio.Medium, error) {
	switch {
	case n.cfg.Slots > 0:
		return radio.NewSlotted(n.cfg.Slots, n.src.Split("radio"))
	case n.cfg.Tau < 1:
		return radio.NewBernoulli(n.cfg.Tau, n.src.Split("radio"))
	default:
		return radio.Perfect{}, nil
	}
}
