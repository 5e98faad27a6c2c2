package selfstab

import (
	"fmt"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
)

// NodeStatus is a node's lifecycle state under churn. It is
// runtime.NodeStatus.
type NodeStatus = runtime.NodeStatus

const (
	// NodeAlive is a normally operating node.
	NodeAlive = runtime.StatusAlive
	// NodeSleeping is a duty-cycled node: radio off, protocol state and
	// queued packets frozen until it wakes.
	NodeSleeping = runtime.StatusSleeping
	// NodeDead is a permanently departed (or never-recovered crashed)
	// node. It takes no further part in the simulation; its index slot
	// survives, so Positions/State stay aligned, until Compact (or the
	// SetAutoCompact threshold) recycles it and renumbers the survivors.
	NodeDead = runtime.StatusDead
)

// ChurnKind is a bitmask naming the disruption kinds folded into one
// convergence-ledger episode. It is runtime.ChurnKind.
type ChurnKind = runtime.ChurnKind

const (
	// ChurnJoin is a node arrival (AddNodes).
	ChurnJoin = runtime.ChurnJoin
	// ChurnLeave is a permanent departure (RemoveNodes).
	ChurnLeave = runtime.ChurnLeave
	// ChurnCrash is a state-losing reboot (CrashNodes).
	ChurnCrash = runtime.ChurnCrash
	// ChurnSleep is a duty-cycle power-down (SleepNodes).
	ChurnSleep = runtime.ChurnSleep
	// ChurnWake is a duty-cycle power-up (WakeNodes).
	ChurnWake = runtime.ChurnWake
	// ChurnFault is transient state corruption (InjectFaults).
	ChurnFault = runtime.ChurnFault
	// ChurnAttack is an adversarial disruption: byzantine density
	// inflation (InflateDensity) or its plausibility eviction
	// (EvictNodes). Attack episodes land in the same convergence ledger
	// as organic churn, so steps-to-restabilize after an attack is
	// measured by the exact machinery the paper's claim is scored with.
	ChurnAttack = runtime.ChurnAttack
)

// DisruptionRecord is one closed episode of the convergence ledger: a
// burst of disruptions followed by the network re-stabilizing — how long
// convergence took and how far it spread. It is runtime.DisruptionRecord.
type DisruptionRecord = runtime.DisruptionRecord

// ConvergenceStats is the convergence ledger: every closed disruption
// episode plus aggregates. For a fixed seed it is bit-identical at any
// parallelism (pinned by TestDeterminismMatrix).
type ConvergenceStats struct {
	// Disruptions lists the closed episodes in order.
	Disruptions []DisruptionRecord
	// Open reports whether a disruption episode is still converging (its
	// record will only appear once the network has been quiet for the
	// convergence window).
	Open bool

	// Aggregates over the closed episodes (zero values when none closed).
	MeanStepsToStabilize float64
	MaxStepsToStabilize  int
	MeanAffectedNodes    float64
	// MeanAffectedRadius averages over episodes with a non-negative
	// radius; MaxAffectedRadius is -1 when no episode had one.
	MeanAffectedRadius float64
	MaxAffectedRadius  int
}

// ConvergenceStats snapshots the convergence ledger. Episodes are
// recorded for every disruption source: the churn schedule, the manual
// churn calls (AddNodes, RemoveNodes, CrashNodes, SleepNodes, WakeNodes)
// and InjectFaults.
func (n *Network) ConvergenceStats() ConvergenceStats {
	recs := n.engine.DisruptionRecords() // a copy: the ledger stays the engine's
	out := ConvergenceStats{
		Disruptions:       recs,
		Open:              n.engine.DisruptionOpen(),
		MaxAffectedRadius: -1,
	}
	var steps, affected, radius, radiusN int
	for _, r := range recs {
		steps += r.StepsToStabilize
		affected += r.AffectedNodes
		if r.StepsToStabilize > out.MaxStepsToStabilize {
			out.MaxStepsToStabilize = r.StepsToStabilize
		}
		if r.AffectedRadius >= 0 {
			radius += r.AffectedRadius
			radiusN++
			if r.AffectedRadius > out.MaxAffectedRadius {
				out.MaxAffectedRadius = r.AffectedRadius
			}
		}
	}
	if len(recs) > 0 {
		out.MeanStepsToStabilize = float64(steps) / float64(len(recs))
		out.MeanAffectedNodes = float64(affected) / float64(len(recs))
	}
	if radiusN > 0 {
		out.MeanAffectedRadius = float64(radius) / float64(radiusN)
	}
	return out
}

// Population counts the nodes in each lifecycle state. alive + sleeping +
// dead always equals N() — dead slots are retained. O(1): the engine
// maintains alive and dead counters across every lifecycle transition, so
// monitoring loops can poll this every step at any scale.
func (n *Network) Population() (alive, sleeping, dead int) {
	alive = n.engine.AliveCount()
	dead = n.engine.DeadCount()
	return alive, n.N() - alive - dead, dead
}

// AddNodes powers up new nodes at the given positions. They receive fresh
// identifiers (returned in order), join the radio topology immediately,
// and integrate into the clustering over the following steps. Indices of
// existing nodes are unchanged; the new nodes take the next indices.
func (n *Network) AddNodes(positions []Point) ([]int64, error) {
	// Identifiers are sequential from nextID, so the journal only needs the
	// positions — replay hands out the same ids.
	first := n.nextID
	if err := n.applyOp(snapshot.Op{Kind: snapshot.OpAddNodes, Points: positions}); err != nil {
		return nil, err
	}
	ids := make([]int64, len(positions))
	for i := range ids {
		ids[i] = first + int64(i)
	}
	return ids, nil
}

// addNodesImpl is the journaled implementation behind AddNodes. All
// positions are validated before any node is added, so a failed call
// mutates nothing.
func (n *Network) addNodesImpl(pts []Point) error {
	if len(pts) == 0 {
		return fmt.Errorf("selfstab: no positions")
	}
	for i, p := range pts {
		if !n.region.Contains(p) {
			return fmt.Errorf("selfstab: position %d (%v, %v) outside the region", i, p.X, p.Y)
		}
	}
	for _, p := range pts {
		if _, err := n.addNodeAt(p); err != nil {
			return err
		}
	}
	return nil
}

// addNodeAt appends one node at p: grid and graph first (so the engine
// sees the newcomer's edges), then the engine slot, then every dense
// structure that must stay aligned.
func (n *Network) addNodeAt(p geom.Point) (int64, error) {
	id := n.nextID
	n.grid.Append(p)
	if _, err := n.engine.Append(id); err != nil {
		return 0, err
	}
	n.nextID++
	if n.traffic != nil {
		n.traffic.Resize(n.N())
	}
	if n.energy != nil {
		n.energy.Resize(n.N()) // arrivals power up with a full battery
	}
	return id, nil
}

// RemoveNodes powers the given nodes off permanently: radio silent,
// protocol state cleared, queued packets accounted as dead-endpoint
// drops. The nodes' index slots (and positions) survive so indices stay
// stable, but the nodes never return — model a temporary outage with
// SleepNodes/WakeNodes or a reboot with CrashNodes instead.
func (n *Network) RemoveNodes(ids ...int64) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpRemoveNodes, IDs: ids})
}

// CrashNodes power-cycles the given nodes: all protocol state, the
// neighbor cache and any queued packets are lost, and each node restarts
// cold at its current position (a sleeping node reboots awake). The
// protocol re-integrates it exactly like a fresh arrival.
//
//selfstab:testref the typed form of the crash_nodes op, which TestInjectOpMatchesTypedMutator pins POST /inject's crash_nodes to
func (n *Network) CrashNodes(ids ...int64) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpCrashNodes, IDs: ids})
}

// SleepNodes duty-cycles the given nodes off: radio silent, protocol
// state and queued packets frozen. Neighbors age them out of their caches
// (configure WithCacheTTL — without eviction a sleeping neighbor lingers
// in caches forever). Nodes slept by this call stay down until WakeNodes.
func (n *Network) SleepNodes(ids ...int64) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpSleepNodes, IDs: ids})
}

// WakeNodes brings sleeping nodes back at their current positions with
// their frozen — possibly stale — state; self-stabilization repairs the
// staleness over the following steps.
func (n *Network) WakeNodes(ids ...int64) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpWakeNodes, IDs: ids})
}

// removeNodeIdx, crashNodeIdx and evictNodeIdx are the journaled
// implementations behind RemoveNodes, CrashNodes and EvictNodes: one
// engine transition each, which loses the node's queued packets too.
func (n *Network) removeNodeIdx(i int) error { return n.flushed(i, n.engine.Kill(i)) }
func (n *Network) crashNodeIdx(i int) error  { return n.flushed(i, n.engine.Reboot(i)) }
func (n *Network) evictNodeIdx(i int) error  { return n.flushed(i, n.engine.Evict(i)) }

// flushed drops node i's queue once its transition succeeded.
func (n *Network) flushed(i int, err error) error {
	if err == nil && n.traffic != nil {
		n.traffic.FlushNode(i)
	}
	return err
}

// ChurnConfig parameterizes the seeded churn schedule AttachChurn
// drives. It is snapshot.ChurnConfig, the record the journal stores.
type ChurnConfig = snapshot.ChurnConfig

// resolveChurn fills the config's defaults and validates it.
func resolveChurn(c ChurnConfig) (ChurnConfig, error) {
	if c.SleepSteps == 0 {
		c.SleepSteps = 10
	}
	if c.MinAlive == 0 {
		c.MinAlive = 2
	}
	if c.ArrivalRate < 0 || c.DepartureRate < 0 || c.CrashRate < 0 || c.SleepRate < 0 {
		return c, fmt.Errorf("selfstab: negative churn rate: %+v", c)
	}
	if c.ArrivalRate == 0 && c.DepartureRate == 0 && c.CrashRate == 0 && c.SleepRate == 0 {
		return c, fmt.Errorf("selfstab: churn config with all rates zero")
	}
	if c.SleepSteps < 1 {
		return c, fmt.Errorf("selfstab: sleep duration %d < 1", c.SleepSteps)
	}
	if c.MinAlive < 1 {
		return c, fmt.Errorf("selfstab: MinAlive %d < 1", c.MinAlive)
	}
	return c, nil
}

// churnState is the attached schedule: its config and its dedicated rng
// stream. The wake deadlines of the nodes it puts to sleep are the
// engine's (Engine.Sleep, Engine.WakeDue).
type churnState struct {
	cfg ChurnConfig
	src *rng.Source
}

// AttachChurn installs a node-lifecycle churn schedule that runs as a
// pre-step phase of every subsequent Δ(τ) step (Step, Run and Stabilize
// all drive it). Requires WithCacheTTL: without cache eviction a vanished
// neighbor would linger in caches forever and the clustering could never
// re-converge. Each disruption is tracked in the convergence ledger; call
// ConvergenceStats for per-episode stabilization time and affected
// radius. Attaching replaces any previously attached schedule; the
// ledger persists across attaches.
func (n *Network) AttachChurn(cfg ChurnConfig) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpAttachChurn, Churn: &cfg})
}

// attachChurnImpl is the journaled implementation behind AttachChurn. The
// journal records the config as given; defaults are refilled here, so a
// replayed attach resolves identically.
func (n *Network) attachChurnImpl(cfg ChurnConfig) error {
	cfg, err := resolveChurn(cfg)
	if err != nil {
		return err
	}
	if n.cfg.CacheTTL == 0 {
		return fmt.Errorf("selfstab: churn requires cache eviction — construct the network with WithCacheTTL")
	}
	if n.churn == nil {
		n.churn = &churnState{src: n.src.Split("churn")}
	}
	n.churn.cfg = cfg
	n.churnAttached = true
	return nil
}

// DetachChurn removes the schedule; subsequent steps run no churn. Nodes
// currently sleeping on a schedule will not be woken — call WakeNodes, or
// re-attach. The convergence ledger stays readable.
func (n *Network) DetachChurn() {
	_ = n.applyOp(snapshot.Op{Kind: snapshot.OpDetachChurn})
}

// churnPreStep is the engine pre-step hook: one step's worth of scheduled
// churn while a schedule is attached. Allocation-free at steady state for
// crash/sleep/wake churn (arrivals allocate: they grow the network).
func (n *Network) churnPreStep(step int) error {
	if !n.churnAttached {
		return nil
	}
	// Due wakes first: they free capacity before new sleeps are drawn.
	if err := n.engine.WakeDue(step); err != nil {
		return err
	}
	c := n.churn
	for k := c.src.Poisson(c.cfg.ArrivalRate); k > 0; k-- {
		p := geom.Point{
			X: n.region.MinX + float64(c.src.Float64()*(n.region.MaxX-n.region.MinX)),
			Y: n.region.MinY + float64(c.src.Float64()*(n.region.MaxY-n.region.MinY)),
		}
		if _, err := n.addNodeAt(p); err != nil {
			return err
		}
	}
	for k := c.src.Poisson(c.cfg.DepartureRate); k > 0; k-- {
		i, ok := n.pickAlive()
		if !ok {
			break
		}
		if err := n.removeNodeIdx(i); err != nil {
			return err
		}
	}
	for k := c.src.Poisson(c.cfg.CrashRate); k > 0; k-- {
		i, ok := n.pickAlive()
		if !ok {
			break
		}
		if err := n.crashNodeIdx(i); err != nil {
			return err
		}
	}
	for k := c.src.Poisson(c.cfg.SleepRate); k > 0; k-- {
		i, ok := n.pickAlive()
		if !ok {
			break
		}
		if err := n.engine.Sleep(i, step+c.cfg.SleepSteps); err != nil {
			return err
		}
	}
	return nil
}

// pickAlive draws a uniform victim among alive nodes, honoring the
// MinAlive floor. The draw is the same k-th-alive-in-index-order pick the
// original full scan produced — resolved through the engine's
// order-statistic index in O(log N) instead of O(N), which is what keeps
// churn steps cheap at million-node scale. Still allocation-free.
func (n *Network) pickAlive() (int, bool) {
	alive := n.engine.AliveCount()
	if alive <= n.churn.cfg.MinAlive {
		return -1, false
	}
	k := n.churn.src.Intn(alive)
	if i := n.engine.NthAlive(k); i >= 0 {
		return i, true
	}
	return -1, false // unreachable: k < alive
}
