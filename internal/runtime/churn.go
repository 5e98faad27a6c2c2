package runtime

import (
	"fmt"

	"selfstab/internal/obs"
)

// NodeStatus is a node slot's lifecycle state. A dead node keeps its
// dense index, so per-node arrays across the whole stack stay aligned
// under churn, until Compact recycles the dead slots under one remap.
type NodeStatus int8

const (
	// StatusAlive is a normally operating node.
	StatusAlive NodeStatus = iota
	// StatusSleeping is a duty-cycled node: radio off, state frozen. Wake
	// resumes it with whatever (possibly stale) cache it had — the
	// self-stabilization property is what makes that safe.
	StatusSleeping
	// StatusDead is a departed node: radio off, state cleared, never
	// coming back (a rebooting node is a Reboot of a live slot, a new
	// arrival is an Append).
	StatusDead
)

// String implements fmt.Stringer.
func (s NodeStatus) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSleeping:
		return "sleeping"
	case StatusDead:
		return "dead"
	}
	return fmt.Sprintf("NodeStatus(%d)", int8(s))
}

// ChurnKind is a bitmask of the disruption kinds folded into one
// convergence-ledger episode.
type ChurnKind uint8

const (
	// ChurnJoin is a node arrival (Append).
	ChurnJoin ChurnKind = 1 << iota
	// ChurnLeave is a permanent departure (Kill).
	ChurnLeave
	// ChurnCrash is a state-losing reboot (Reboot).
	ChurnCrash
	// ChurnSleep is a duty-cycle power-down (Sleep).
	ChurnSleep
	// ChurnWake is a duty-cycle power-up (Wake).
	ChurnWake
	// ChurnFault is transient state corruption (Corrupt).
	ChurnFault
	// ChurnAttack is an adversarial disruption: a byzantine density
	// inflation (MarkAttack) or its plausibility eviction (Evict). Kept
	// distinct from the benign kinds so the convergence ledger can score
	// steps-to-restabilize for attack episodes separately.
	ChurnAttack
)

// String renders the set, e.g. "join|crash".
func (k ChurnKind) String() string {
	names := []struct {
		bit  ChurnKind
		name string
	}{
		{ChurnJoin, "join"}, {ChurnLeave, "leave"}, {ChurnCrash, "crash"},
		{ChurnSleep, "sleep"}, {ChurnWake, "wake"}, {ChurnFault, "fault"},
		{ChurnAttack, "attack"},
	}
	out := ""
	for _, n := range names {
		if k&n.bit == 0 {
			continue
		}
		if out != "" {
			out += "|"
		}
		out += n.name
	}
	if out == "" {
		return "none"
	}
	return out
}

// DisruptionRecord is one closed episode of the convergence ledger: a
// burst of disruptions (possibly a single one) followed by the network
// re-stabilizing. It makes the paper's self-stabilization claim
// measurable per disruption instead of per run.
type DisruptionRecord struct {
	// Step is the completed-step count at which the episode opened.
	Step int
	// Kinds is the set of disruption kinds folded into the episode.
	Kinds ChurnKind
	// Ops counts the individual disruptions (node joins, crashes, ...).
	Ops int
	// StepsToStabilize is the number of steps from the episode opening to
	// the last step that changed any shared variable (0: the disruption
	// changed nothing the protocol had to react to).
	StepsToStabilize int
	// AffectedNodes counts nodes whose shared state changed during the
	// episode — the paper's locality claim measured in population.
	AffectedNodes int
	// AffectedRadius is the maximum hop distance (on the topology at close
	// time) from the disruption sites to any affected node — the locality
	// claim measured in hops. For departures and sleeps the sites are the
	// vanished node's former neighbors, since the node itself is no longer
	// reachable. -1 when no affected node is reachable from any site
	// (including the no-affected-nodes case).
	AffectedRadius int
}

// disruption is the open-episode tracker. sites and changed are reused
// across episodes so steady-state churn tracking allocates nothing.
type disruption struct {
	active  bool
	kinds   ChurnKind
	ops     int
	start   int    // e.step when the episode opened
	sites   []int  // deduplicated disruption sites
	siteSet []bool // per-node "already a site" flag (bounds sites)
	changed []bool // per-node "shared state changed this episode"

	// Carry counters for slots a mid-episode Compact dropped: each was a
	// changed (dead, isolated) node, counted as affected at close time;
	// droppedChangedSite records whether any of them was also a site,
	// i.e. a radius-0 witness. See Engine.compactDisruption.
	droppedChanged     int
	droppedChangedSite bool
}

// markDisruption opens (or extends) the current episode with one
// disruption of the given kind at site, optionally spreading to extra
// sites (e.g. the former neighbors of a departed node). It is
// allocation-free at steady state.
func (e *Engine) markDisruption(kind ChurnKind, site int, spread []int) {
	d := &e.disrupt
	if !d.active {
		d.active = true
		d.kinds = 0
		d.ops = 0
		d.start = e.step
		d.sites = d.sites[:0]
		for i := range d.siteSet {
			d.siteSet[i] = false
		}
		for i := range d.changed {
			d.changed[i] = false
		}
		d.droppedChanged = 0
		d.droppedChangedSite = false
	}
	d.kinds |= kind
	d.ops++
	e.addSite(site)
	for _, s := range spread {
		e.addSite(s)
	}
	if e.step > e.lastChange {
		e.lastChange = e.step
	}
}

func (e *Engine) addSite(i int) {
	if i < 0 || i >= len(e.disrupt.siteSet) || e.disrupt.siteSet[i] {
		return
	}
	e.disrupt.siteSet[i] = true
	e.disrupt.sites = append(e.disrupt.sites, i)
}

// markChanged records that node i's state changed out-of-band (crash,
// corruption) while an episode is open.
func (e *Engine) markChanged(i int) {
	if e.disrupt.active && i >= 0 && i < len(e.disrupt.changed) {
		e.disrupt.changed[i] = true
	}
}

// maybeCloseDisruption closes the open episode once the network has been
// quiet for the convergence window, appending the finished record to the
// ledger. Called at the top of every Step.
func (e *Engine) maybeCloseDisruption() {
	d := &e.disrupt
	if !d.active || e.step-e.lastChange < e.convWindow {
		return
	}
	rec := DisruptionRecord{
		Step:             d.start,
		Kinds:            d.kinds,
		Ops:              d.ops,
		StepsToStabilize: e.lastChange - d.start,
	}
	rec.AffectedNodes, rec.AffectedRadius = e.affectedSpread()
	e.ledger = append(e.ledger, rec)
	d.active = false
}

// affectedSpread runs one multi-source BFS from the episode's sites over
// the current topology and reports how many nodes changed state and the
// maximum hop distance of any of them from a site. Scratch is reused.
func (e *Engine) affectedSpread() (affected, radius int) {
	n := e.g.N()
	if cap(e.bfsDist) < n {
		e.bfsDist = make([]int32, n)
		e.bfsQueue = make([]int32, 0, n)
	}
	dist := e.bfsDist[:n]
	for i := range dist {
		dist[i] = -1
	}
	queue := e.bfsQueue[:0]
	for _, s := range e.disrupt.sites {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		for _, w := range e.g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, int32(w))
			}
		}
	}
	e.bfsQueue = queue[:0]
	radius = -1
	for i, c := range e.disrupt.changed {
		if !c {
			continue
		}
		affected++
		if int(dist[i]) > radius {
			radius = int(dist[i])
		}
	}
	// Slots a mid-episode Compact dropped: each was a changed dead node
	// (affected), and a dropped site is its own radius-0 witness.
	affected += e.disrupt.droppedChanged
	if e.disrupt.droppedChangedSite && radius < 0 {
		radius = 0
	}
	return affected, radius
}

// SetConvergenceWindow sets how many consecutive quiet steps close a
// disruption episode. The constructor default is max(5, CacheTTL+2) —
// under churn the window must exceed the cache TTL, or an episode would
// close before stale entries of a vanished neighbor even expired.
func (e *Engine) SetConvergenceWindow(k int) {
	if k < 1 {
		k = 1
	}
	e.convWindow = k
}

// ConvergenceWindow returns the episode-close window. Callers that wait
// for quiescence and then read the ledger (Network.Stabilize) must use a
// window at least this wide, or the final episode stays open.
func (e *Engine) ConvergenceWindow() int { return e.convWindow }

// DisruptionOpen reports whether a disruption episode is still
// converging. Like DisruptionRecords it first closes an episode whose
// quiet window has already elapsed.
func (e *Engine) DisruptionOpen() bool {
	e.maybeCloseDisruption()
	return e.disrupt.active
}

// DisruptionRecords returns a copy of the closed-episode ledger. An open
// episode whose quiet window has already elapsed — typically right after
// RunUntilStable returned — is closed first, so reading the ledger after
// stabilization always includes the final episode.
func (e *Engine) DisruptionRecords() []DisruptionRecord {
	e.maybeCloseDisruption()
	return append([]DisruptionRecord(nil), e.ledger...)
}

// Status returns node i's lifecycle state.
func (e *Engine) Status(i int) NodeStatus { return e.status[i] }

// IsHead reports whether node i currently claims headship, whatever its
// status — Node(i).IsHead() read from a dense per-slot array.
func (e *Engine) IsHead(i int) bool { return e.head[i] }

// Roles returns the per-slot status and head arrays, indexed by node: the
// battery pass reads them once per step instead of asking per node. The
// slices are the engine's own and callers must not write them; Append and
// Compact may replace them, so read them again after either.
func (e *Engine) Roles() (status []NodeStatus, head []bool) { return e.status, e.head }

// resetNode cold-restarts node i's protocol state (Node.reset), which
// makes it its own head again.
func (e *Engine) resetNode(i int) {
	e.nodes[i].reset(e.proto)
	e.head[i] = true
}

// AliveCount returns the number of StatusAlive nodes. O(1): the count is
// maintained incrementally by the churn mutators (churn schedules query
// it per victim draw, which at 100k+ nodes must not rescan the statuses).
func (e *Engine) AliveCount() int { return e.aliveN }

// DeadCount returns the number of StatusDead slots — the recyclable
// population an explicit Compact (or an auto-compaction threshold)
// reclaims. O(1).
func (e *Engine) DeadCount() int { return e.deadN }

// Append adds one new live node with the given identifier. The caller
// must have grown the engine's graph first (topology.Graph.AddNode or
// GridIndex.Append), so the new node's edges are already in place and the
// join's disruption sites include its radio neighbors. The node's rng
// stream is derived from the engine's master source exactly as at
// construction, so surviving nodes' streams are untouched and a fixed
// seed plus a fixed churn schedule reproduces bit-identical runs.
//
//selfstab:mutator
func (e *Engine) Append(id int64) (int, error) {
	i := len(e.nodes)
	if e.g.N() != i+1 {
		return -1, fmt.Errorf("runtime: graph has %d nodes, want %d (grow the graph before Append)", e.g.N(), i+1)
	}
	if j, dup := e.idx[id]; dup {
		return -1, fmt.Errorf("runtime: duplicate id %d on node %d", id, j)
	}
	e.nodes = append(e.nodes, newNode(id, e.proto, e.nodeStream(i)))
	e.ids = append(e.ids, id)
	e.idx[id] = i
	e.out = append(e.out, Frame{})
	e.active = append(e.active, false)
	e.status = append(e.status, StatusAlive)
	e.sendMask = append(e.sendMask, true)
	e.head = append(e.head, true)
	e.disrupt.changed = append(e.disrupt.changed, false)
	e.disrupt.siteSet = append(e.disrupt.siteSet, false)
	e.pendFlag = append(e.pendFlag, false)
	if len(e.visit) < words(len(e.nodes)) {
		e.visit = append(e.visit, 0)
	}
	if e.densityScale != nil {
		e.densityScale = append(e.densityScale, 1) // arrivals start unscaled (full battery)
	}
	e.aliveIdx.grow()
	e.aliveIdx.set(i)
	e.aliveN++
	// The newcomer broadcasts a fresh frame, so the frontier expansion
	// pulls its neighbors in by itself; only the node needs activating.
	e.Activate(i)
	e.markDisruption(ChurnJoin, i, e.g.Neighbors(i))
	e.markChanged(i)
	e.epoch++
	return i, nil
}

// Kill permanently removes node i: its state and cache are cleared and it
// never participates again. The disruption sites are the node plus its
// current neighbors — capture runs before the caller detaches the node's
// edges, so call Kill first, then remove the edges from the topology.
//
//selfstab:mutator
func (e *Engine) Kill(i int) error {
	if err := e.checkIndex(i); err != nil {
		return err
	}
	if e.status[i] == StatusDead {
		return fmt.Errorf("runtime: node %d is already dead", i)
	}
	e.markDisruption(ChurnLeave, i, e.g.Neighbors(i))
	e.markChanged(i)
	// The survivors stop hearing the departed node this very step: its
	// former neighbors must start aging their cache entries now.
	e.activateSpread(i, e.g.Neighbors(i))
	if e.status[i] == StatusAlive {
		e.aliveN--
	}
	e.aliveIdx.clear(i)
	e.deadN++
	e.resetNode(i)
	e.status[i] = StatusDead
	e.sendMask[i] = false
	e.epoch++
	return nil
}

// Reboot crashes node i: all protocol state and the neighbor cache are
// lost and the node restarts cold, exactly like a fresh arrival at the
// same position (its rng stream continues, keeping runs reproducible).
// A sleeping node reboots awake.
//
//selfstab:mutator
func (e *Engine) Reboot(i int) error { return e.restart(i, ChurnCrash) }

// restart is the cold restart Reboot and Evict share: node i loses all
// protocol state and its neighbor cache and comes back alive (a sleeping
// node restarts awake), opening or extending a disruption episode of the
// given kind. A crash marks the node alone; an attack response, like
// MarkAttack, marks its current neighbors too.
func (e *Engine) restart(i int, kind ChurnKind) error {
	if err := e.checkIndex(i); err != nil {
		return err
	}
	if e.status[i] == StatusDead {
		return fmt.Errorf("runtime: node %d is dead", i)
	}
	var spread []int
	if kind == ChurnAttack {
		spread = e.g.Neighbors(i)
	}
	e.markDisruption(kind, i, spread)
	e.markChanged(i)
	e.Activate(i) // reset state re-broadcasts; the expansion covers neighbors
	if e.status[i] != StatusAlive {
		e.aliveN++
	}
	e.aliveIdx.set(i)
	e.resetNode(i)
	e.status[i] = StatusAlive
	e.sendMask[i] = true
	e.epoch++
	return nil
}

// Sleep duty-cycles node i off: radio silent, state frozen. The
// disruption sites are the node plus its current neighbors — call Sleep
// before detaching its edges from the topology.
//
//selfstab:mutator
func (e *Engine) Sleep(i int) error {
	if err := e.checkIndex(i); err != nil {
		return err
	}
	if e.status[i] != StatusAlive {
		return fmt.Errorf("runtime: node %d is %s, cannot sleep", i, e.status[i])
	}
	e.markDisruption(ChurnSleep, i, e.g.Neighbors(i))
	// The sleeper falls silent: its neighbors' cache entries for it start
	// aging this very step.
	e.activateSpread(i, e.g.Neighbors(i))
	e.aliveN--
	e.aliveIdx.clear(i)
	e.status[i] = StatusSleeping
	e.sendMask[i] = false
	e.epoch++
	return nil
}

// Wake brings a sleeping node back: radio on, frozen (possibly stale)
// state resumed — self-stabilization repairs whatever went stale. Call
// Wake after reattaching the node's edges so the join sites include its
// current neighbors.
//
//selfstab:mutator
func (e *Engine) Wake(i int) error {
	if err := e.checkIndex(i); err != nil {
		return err
	}
	if e.status[i] != StatusSleeping {
		return fmt.Errorf("runtime: node %d is %s, cannot wake", i, e.status[i])
	}
	e.markDisruption(ChurnWake, i, e.g.Neighbors(i))
	e.Activate(i) // frameDirty below pulls the neighbors in via the expansion
	e.aliveN++
	e.aliveIdx.set(i)
	e.status[i] = StatusAlive
	e.sendMask[i] = true
	n := e.nodes[i]
	n.dirty = true      // the stale cache must be re-evaluated
	n.frameDirty = true // and the frozen state re-broadcast
	e.epoch++
	return nil
}

func (e *Engine) checkIndex(i int) error {
	if i < 0 || i >= len(e.nodes) {
		return fmt.Errorf("runtime: node index %d out of range [0, %d)", i, len(e.nodes))
	}
	return nil
}

// MarkAttack opens (or extends) an attack-kind disruption episode at node
// i and its current neighbors — the convergence-ledger entry for a
// byzantine injection, so steps-to-restabilize is scored per attack the
// same way it is per benign churn event. The node's state itself is
// mutated by the accompanying SetDensityScale call.
//
//selfstab:mutator
func (e *Engine) MarkAttack(i int) error {
	if err := e.checkIndex(i); err != nil {
		return err
	}
	e.markDisruption(ChurnAttack, i, e.g.Neighbors(i))
	e.markChanged(i)
	return nil
}

// Evict expels a byzantine node: its density scale resets to the honest
// 1, all protocol state and the neighbor cache are cleared, and the node
// restarts cold at its position — a Reboot whose disruption episode is
// recorded as an attack response (ChurnAttack) rather than a benign
// crash, so the ledger can score recovery from evictions separately. A
// sleeping node evicts awake. Emits one byzantine-eviction counter tick.
//
//selfstab:mutator
func (e *Engine) Evict(i int) error {
	if err := e.restart(i, ChurnAttack); err != nil {
		return err
	}
	if e.densityScale != nil {
		e.densityScale[i] = 1
	}
	if p := e.probe; p != nil {
		p.Counter(obs.CtrByzantineEvictions, 1)
	}
	return nil
}

// Implausible returns, in ascending index order, the alive nodes whose
// advertised density exceeds factor times the local plausibility bound
// (deg+1)/2, where deg is the node's current topology degree. The bound
// is exact for honest nodes: guard R1 computes density = links/deg with
// links ≤ deg + C(deg, 2), so an unscaled density can never exceed
// (deg+1)/2 — any node above it (factor 1) is advertising a density its
// observed neighborhood cannot support. Callers pass factor > 1 for
// slack against transiently stale caches under churn (a cached vanished
// neighbor briefly inflates links relative to the live degree).
// Degree-zero nodes are never reported. Read-only.
func (e *Engine) Implausible(factor float64) []int {
	var out []int
	for i := range e.nodes {
		if e.status[i] != StatusAlive {
			continue
		}
		deg := len(e.g.Neighbors(i))
		if deg == 0 {
			continue
		}
		bound := factor * float64(deg+1) / 2
		if e.nodes[i].Density() > bound {
			out = append(out, i)
		}
	}
	return out
}
