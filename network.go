package selfstab

import (
	"fmt"
	"slices"
	"sort"

	"selfstab/internal/cluster"
	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
	"selfstab/internal/viz"
)

// N returns the number of nodes.
func (n *Network) N() int { return len(n.engine.IDs()) }

// IDs returns a copy of the node identifiers, indexed like Positions.
func (n *Network) IDs() []int64 { return slices.Clone(n.engine.IDs()) }

// IndexOf returns the dense index node id currently occupies (the index
// State and Positions use) and whether the world knows the id at all.
// Indices move when Compact recycles dead slots, and a compacted-away id
// is unknown from then on. Read-only and O(1).
func (n *Network) IndexOf(id int64) (int, bool) { return n.engine.Index(id) }

// Positions returns a copy of the node positions.
func (n *Network) Positions() []Point { return slices.Clone(n.grid.Points()) }

// Range returns the radio transmission range.
func (n *Network) Range() float64 { return n.cfg.Range }

// StepCount returns how many Δ(τ) steps have executed.
func (n *Network) StepCount() int { return n.engine.StepCount() }

// Step advances the protocol by one Δ(τ) step: every node broadcasts once
// and evaluates its guarded assignments. With frontier stepping active
// (the default on a lossless medium with a synchronous daemon) only the
// nodes whose inputs could have changed are examined, so a stabilized
// network steps in O(1) regardless of size. An auto-compaction threshold
// (SetAutoCompact) is checked before the step.
//
//selfstab:unjournaled stepping is deterministic; snapshots record the step count and replay re-steps instead of journaling ops
func (n *Network) Step() error {
	if err := n.maybeAutoCompact(); err != nil {
		return err
	}
	return n.engine.Step()
}

// Run advances the protocol by exactly steps steps.
func (n *Network) Run(steps int) error {
	for i := 0; i < steps; i++ {
		if err := n.Step(); err != nil {
			return err
		}
	}
	return nil
}

// SparseStepping reports whether steps visit only the frontier worklist:
// the engine chooses that whenever the configuration supports it — a
// lossless medium (no WithTau / WithSlottedRadio) and a synchronous daemon
// (no WithDaemon below 1) — and scans every node every step otherwise.
// Both produce bit-identical executions where both can run.
func (n *Network) SparseStepping() bool { return n.engine.Sparse() }

// Stabilize steps the protocol until the shared state stops changing
// (stable for the configured window, default 5 steps — see
// WithStableWindow) and returns the step index at which the last change
// happened. It fails if maxSteps is exhausted first — with a lossy medium
// allow a generous budget.
//
// While a disruption episode is converging (churn, fault injection) — or
// a churn schedule is attached, so disruptions can open mid-run — the
// window is widened to the engine's convergence window (by default
// max(stable window, cache TTL + 2)): a vanished neighbor only leaves
// caches after TTL eviction, and declaring stability before that would be
// premature — and would leave the episode dangling open in
// ConvergenceStats.
func (n *Network) Stabilize(maxSteps int) (int, error) {
	win := n.cfg.StableWindow
	if n.engine.DisruptionOpen() || n.churnAttached {
		win = max(win, n.engine.ConvergenceWindow())
	}
	// The loop mirrors the engine's RunUntilStable but drives Network.Step
	// so the auto-compaction threshold applies mid-stabilization too.
	start := n.engine.StepCount()
	for s := 1; s <= maxSteps; s++ {
		if err := n.Step(); err != nil {
			return 0, err
		}
		if n.engine.StepCount()-n.engine.LastChange() >= win {
			if lc := n.engine.LastChange(); lc > start {
				return lc - start, nil
			}
			return 0, nil
		}
	}
	return 0, runtime.ErrNotStabilized
}

// InjectFaults corrupts each node's protocol state and neighbor caches
// with probability frac (1 = every node), simulating the arbitrary
// transient faults of the self-stabilization model. Call Stabilize
// afterwards and the network heals.
func (n *Network) InjectFaults(frac float64) {
	// Journaled (the corruption draw comes from a split stream, so replay
	// reproduces it); the dispatch refuses only frac <= 0, a no-op here.
	_ = n.applyOp(snapshot.Op{Kind: snapshot.OpFaults, Frac: frac})
}

// NodeState is the externally visible protocol state of one node.
type NodeState struct {
	ID       int64
	Position Point
	Density  float64
	HeadID   int64
	ParentID int64
	Color    int64 // DAG color (equals ID when the DAG is disabled)
	IsHead   bool
	// Status is the lifecycle state under churn. For sleeping nodes the
	// protocol fields are the frozen pre-sleep values; for dead nodes
	// they are cleared to the self-head cold state.
	Status NodeStatus
}

// State returns the current protocol state of node i (by index).
func (n *Network) State(i int) (NodeState, error) {
	if i < 0 || i >= n.N() {
		return NodeState{}, fmt.Errorf("selfstab: node index %d out of range [0, %d)", i, n.N())
	}
	node := n.engine.Node(i)
	return NodeState{
		ID:       node.ID(),
		Position: n.grid.Points()[i],
		Density:  node.Density(),
		HeadID:   node.HeadID(),
		ParentID: node.ParentID(),
		Color:    node.TieID(),
		IsHead:   node.IsHead(),
		Status:   n.engine.Status(i),
	}, nil
}

// Cluster is one cluster of the current configuration.
type Cluster struct {
	// HeadID is the cluster-head's identifier.
	HeadID int64
	// Members lists the identifiers of all cluster members (including the
	// head), ascending.
	Members []int64
}

// Clusters groups nodes by their current cluster-head choice, sorted by
// head identifier. In a stabilized network this is the legitimate
// clustering; mid-convergence it is whatever the nodes currently believe.
// Dead and sleeping nodes are not listed: only the operating population
// clusters.
func (n *Network) Clusters() []Cluster {
	return groupClusters(n.N(), func(i int) (int64, int64, bool) {
		node := n.engine.Node(i)
		return node.HeadID(), node.ID(), n.engine.Status(i) == runtime.StatusAlive
	})
}

// groupClusters groups slots 0..n-1 into clusters: member(i) returns
// slot i's head identifier, its own identifier, and whether it is listed
// at all. Members are ascending and clusters sorted by head identifier.
func groupClusters(n int, member func(i int) (head, id int64, ok bool)) []Cluster {
	byHead := make(map[int64][]int64, 8)
	for i := range n {
		if h, id, ok := member(i); ok {
			byHead[h] = append(byHead[h], id)
		}
	}
	out := make([]Cluster, 0, len(byHead))
	//selfstab:orderinvariant every cluster is emitted exactly once and the trailing sorts canonicalize the order
	for h, ms := range byHead {
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		out = append(out, Cluster{HeadID: h, Members: ms})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HeadID < out[j].HeadID })
	return out
}

// Stats summarizes the current clustering (see the paper's Tables 4-5).
type Stats struct {
	Clusters             int
	MeanHeadEccentricity float64
	MaxHeadEccentricity  int
	MeanTreeLength       float64
	MaxTreeLength        int
}

// Stats measures the current clustering against the true topology.
// Like Clusters and Verify it spans the operating population only: dead
// and sleeping nodes keep their dense index slots under churn but are not
// counted as singleton clusters.
func (n *Network) Stats() Stats {
	s := n.engine.Assignment().ComputeStatsOn(n.grid.Graph(), n.operatingMask())
	return Stats{
		Clusters:             s.NumClusters,
		MeanHeadEccentricity: s.MeanHeadEccentricity,
		MaxHeadEccentricity:  s.MaxHeadEccentricity,
		MeanTreeLength:       s.MeanTreeLength,
		MaxTreeLength:        s.MaxTreeLength,
	}
}

// Verify checks that the current configuration is legitimate: every node's
// density matches Definition 1 on the true topology, colors are locally
// unique, head/parent structure satisfies the paper's invariants, and the
// head assignment equals the static fixpoint oracle for the current
// colors. It returns nil for a stabilized network and a descriptive error
// otherwise — the executable version of the paper's correctness proofs.
//
// Under churn the predicate applies to the operating population: dead
// and sleeping nodes are isolated vertices of the topology, their frozen
// or cleared state is exempt, and the alive nodes must match the oracle
// for the surviving graph.
func (n *Network) Verify() error {
	want, got, oracle, err := n.fixpoint()
	if err != nil {
		return err
	}
	alive := func(i int) bool { return n.engine.Status(i) == runtime.StatusAlive }
	// Densities (Lemma 1), scaled as guard R1 scales them: the legitimacy
	// predicate stays exact under rotation, it just elects against the
	// battery-weighted metric.
	for i := range want {
		if !alive(i) {
			continue
		}
		d := n.engine.Node(i).Density()
		if diff := d - want[i]; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("selfstab: node %d density %v, want %v", n.engine.IDs()[i], d, want[i])
		}
	}
	// Locally unique colors (Theorem 1 legitimacy).
	if n.cfg.DAG && !n.engine.DagLocallyUnique() {
		return fmt.Errorf("selfstab: DAG colors not locally unique")
	}
	// Head fixpoint (Lemma 2): equals the oracle on the realized colors.
	for u := range got.Head {
		if !alive(u) {
			// Exempt from the oracle; sanitize to the self-head state an
			// isolated vertex legitimately holds so the structural
			// invariants below still apply to the whole assignment.
			got.Head[u], got.Parent[u] = u, u
			continue
		}
		if got.Head[u] != oracle.Head[u] {
			// The live head comes from node state: a corrupted or stale
			// head identifier has no slot, so got.Head[u] may be -1.
			ids := n.engine.IDs()
			return fmt.Errorf("selfstab: node %d heads %d, oracle fixpoint %d", ids[u], n.engine.Node(u).HeadID(), ids[oracle.Head[u]])
		}
	}
	if err := cluster.CheckInvariants(n.grid.Graph(), got, n.cfg.Fusion, n.engine.IDs()); err != nil {
		return fmt.Errorf("selfstab: %w", err)
	}
	return nil
}

// operatingMask returns the alive-nodes bitmap Stats and BuildHierarchy
// restrict themselves to, or nil when every slot is alive (the common
// churn-free case, where the mask would only cost allocations). The
// all-alive probe is an O(1) counter comparison, so observability calls
// on a quiescent churn-free world never walk the population.
func (n *Network) operatingMask() []bool {
	if n.engine.AliveCount() == n.N() {
		return nil
	}
	mask := make([]bool, n.N())
	for i := range mask {
		mask[i] = n.engine.Status(i) == runtime.StatusAlive
	}
	return mask
}

// SetPositions moves the nodes (mobility) and repairs the radio topology
// incrementally: the unit-disk grid index persists across calls and only
// nodes that actually moved have their edges recomputed, so a mobility
// step costs work proportional to the motion, not to the network size.
// The Network's graph is updated in place. Combine with WithCacheTTL so
// stale neighbors age out of caches.
func (n *Network) SetPositions(positions []Point) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpSetPositions, Points: positions})
}

// setPositionsImpl is the journaled implementation behind SetPositions.
func (n *Network) setPositionsImpl(positions []Point) error {
	for i, p := range positions {
		if !n.region.Contains(p) {
			return fmt.Errorf("selfstab: position %d outside the region", i)
		}
	}
	// Update checks the count, copies the positions into the grid and
	// repairs the engine's graph in place. Via the grid's adjacency hook
	// it activates exactly the nodes whose edge sets moved, so the
	// frontier re-examines the motion, not the network; an edge change
	// advances the graph's Version, which the routing and stretch caches
	// key on.
	return n.grid.Update(positions)
}

// SetParallelism fixes the worker count of the step engine's per-node
// phases, the only fan-out in the stack (the traffic and energy phases
// are sequential). 0 (the default) sizes the pool to GOMAXPROCS. Results
// — protocol state, traffic and energy statistics alike — are
// bit-identical for any value; the knob exists for benchmarking and the
// determinism tests.
//
//selfstab:unjournaled perf knob; results are bit-identical for any worker count
func (n *Network) SetParallelism(workers int) { n.engine.SetParallelism(workers) }

// RenderASCII draws the current clustering as a rows x cols character map
// (uppercase letters are cluster-heads).
func (n *Network) RenderASCII(rows, cols int) (string, error) {
	return viz.ASCII(n.grid.Graph(), n.grid.Points(), n.renderAssignment(new(cluster.Assignment)), rows, cols)
}

// renderMoved brings routeAsg up to date with the engine, rendered as
// renderAssignment renders, and returns the slots below the previous slot
// count whose rendered head or parent changed. routeIDs keeps the head
// and parent identifiers each slot was rendered from, so only a slot
// whose identifiers moved is resolved again; when slots were added, a
// slot whose identifier did not resolve is retried too, since the new
// identifiers may name it. With routeIDs empty (the first render, or the
// first after Compact) every slot is rendered and none returned.
func (n *Network) renderMoved() []int32 {
	e, a, ids := n.engine, &n.routeAsg, n.engine.IDs()
	prev := len(n.routeIDs)
	grew := len(ids) > prev
	a.Head = slices.Grow(a.Head[:prev], len(ids)-prev)[:len(ids)]
	a.Parent = slices.Grow(a.Parent[:prev], len(ids)-prev)[:len(ids)]
	n.routeIDs = slices.Grow(n.routeIDs[:prev], len(ids)-prev)[:len(ids)]
	moved := n.routeMoved[:0]
	for i := range ids {
		nd, was := e.Node(i), &n.routeIDs[i]
		head, parent := nd.HeadID(), nd.ParentID()
		if i < prev && head == was.head && parent == was.parent &&
			(!grew || (ids[a.Head[i]] == head && ids[a.Parent[i]] == parent)) {
			continue
		}
		*was = headParentIDs{head, parent}
		h, p := n.slotOr(head, i), n.slotOr(parent, i)
		if i < prev && (h != a.Head[i] || p != a.Parent[i]) {
			moved = append(moved, int32(i))
		}
		a.Head[i], a.Parent[i] = h, p
	}
	n.routeMoved = moved
	return moved
}

// headParentIDs is the head and parent identifier a slot was rendered from.
type headParentIDs struct{ head, parent int64 }

// slotOr returns the slot of node id, or self when no slot holds it.
func (n *Network) slotOr(id int64, self int) int {
	if i, ok := n.engine.Index(id); ok {
		return i
	}
	return self
}

// renderAssignment sanitizes the live assignment for rendering and routing:
// head references that do not resolve (transient states) fall back to self
// so the renderers always succeed. It writes into a, reusing its slices.
func (n *Network) renderAssignment(a *cluster.Assignment) *cluster.Assignment {
	n.engine.AssignmentInto(a)
	for u := range a.Head {
		if a.Head[u] < 0 {
			a.Head[u] = u
		}
		if a.Parent[u] < 0 {
			a.Parent[u] = u
		}
	}
	return a
}
