package selfstab

import (
	"fmt"
	"math"

	"selfstab/internal/obs"
	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
	"selfstab/internal/traffic"
)

// Adversarial workload plane. The paper's self-stabilization claim is a
// robustness claim, and this file makes it falsifiable under adversaries
// instead of just under benign churn: botnet CBR floods aimed at the
// current cluster-heads (FloodHeads), byzantine nodes advertising
// inflated densities to capture headship (InflateDensity), and sybil
// join bursts packed around a victim (SybilJoin) — plus the measurable
// defenses: traffic-plane admission control and rate limiting
// (SetTrafficDefense) and local density-plausibility detection and
// eviction (ImplausibleNodes, EvictNodes).
//
// Every attack and defense op routes through the applyOp journal
// chokepoint, so an attacked world snapshots and replays bit-identically
// like any other. Targets are resolved against the live hierarchy at
// call time and journaled as explicit identifiers (the crash-region
// pattern): replay applies the same flows to the same nodes even though
// the hierarchy it would resolve against no longer exists. Scoring needs
// no new machinery — floods land in the traffic ledger (delivery ratio,
// DropsAdmission/DropsRateLimit), byzantine inflation and eviction open
// ChurnAttack episodes in the convergence ledger (steps-to-restabilize,
// affected radius), and the energy ledger prices the drain.

// DefenseConfig parameterizes the traffic-plane defenses installed by
// SetTrafficDefense; the zero value disables every defense. It is
// snapshot.DefenseConfig, the record the journal stores.
type DefenseConfig = snapshot.DefenseConfig

// SetTrafficDefense installs (or, with a zero config, removes) the
// traffic-plane defenses on the attached data plane. The call is
// journaled; installing resets the defense state (buckets start full),
// never the traffic ledger, so before/after deltas stay measurable
// across the call. Re-attaching the data plane clears any installed
// defense. It fails if no data plane is attached.
func (n *Network) SetTrafficDefense(cfg DefenseConfig) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpSetDefense, Defense: &cfg})
}

// setDefenseImpl is the journaled implementation behind SetTrafficDefense.
func (n *Network) setDefenseImpl(cfg DefenseConfig) error {
	if !n.trafficOn {
		return fmt.Errorf("selfstab: no traffic attached — defenses guard the data plane")
	}
	return n.traffic.SetDefense(cfg)
}

// SpawnFlows appends flows to the attached data plane without resetting
// its ledger or its queues — unlike re-attaching, delivery history stays
// continuous, which is what makes an attack's before/after delta
// measurable. Flows are built with the same constructors as
// TrafficConfig.Flows (CBRFlow, PoissonFlow, HotspotFlow). It fails if
// no data plane is attached.
func (n *Network) SpawnFlows(flows ...Flow) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpSpawnFlows, Traffic: &TrafficConfig{Flows: flows}})
}

// spawnFlowsImpl is the journaled implementation behind SpawnFlows.
// Hotspot flows are journaled unexpanded and expanded here at apply
// time, exactly like attachTrafficImpl — validated in full before the
// master stream advances — so replay reproduces the same source picks.
func (n *Network) spawnFlowsImpl(flows []Flow) error {
	if !n.trafficOn {
		return fmt.Errorf("selfstab: no traffic attached — spawn flows after AttachTraffic")
	}
	specs, err := n.resolveFlows(flows)
	if err == nil {
		err = traffic.ValidateFlows(n.N(), specs)
	}
	if err != nil {
		return err
	}
	specs = n.expandFlows(flows, specs)
	return n.traffic.AddFlows(specs)
}

// FloodHeads launches a botnet flood against the current cluster
// hierarchy: bots compromised nodes — alive non-heads, lowest indices
// first — each start a CBR flow of rate packets per step aimed at a
// current cluster-head, assigned round-robin so every head takes fire.
// Targets are resolved against the live hierarchy at call time and the
// flows journaled with explicit endpoints, so replay reproduces the
// attack even after the hierarchy has re-formed. Returns the bot
// identifiers. The flood rides the normal data plane: score it with
// TrafficStats (delivery ratio, queue drops, and — with defenses on —
// DropsAdmission).
func (n *Network) FloodHeads(bots int, rate float64) ([]int64, error) {
	if bots < 1 {
		return nil, fmt.Errorf("selfstab: flood with %d bots", bots)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("selfstab: flood rate %v <= 0", rate)
	}
	if !n.trafficOn {
		return nil, fmt.Errorf("selfstab: no traffic attached — floods ride the data plane")
	}
	var heads, candidates []int
	for i := range n.N() {
		if n.engine.Status(i) != runtime.StatusAlive {
			continue
		}
		if n.engine.IsHead(i) {
			heads = append(heads, i)
		} else {
			candidates = append(candidates, i)
		}
	}
	if len(heads) == 0 {
		return nil, fmt.Errorf("selfstab: no cluster-heads to flood (stabilize first)")
	}
	if bots > len(candidates) {
		return nil, fmt.Errorf("selfstab: %d bots requested but only %d alive non-head nodes", bots, len(candidates))
	}
	flows := make([]Flow, bots)
	ids := make([]int64, bots)
	all := n.engine.IDs()
	for k := 0; k < bots; k++ {
		src, dst := candidates[k], heads[k%len(heads)]
		flows[k] = CBRFlow(all[src], all[dst], rate)
		ids[k] = all[src]
	}
	if err := n.SpawnFlows(flows...); err != nil {
		return nil, err
	}
	if p := n.probe; p != nil {
		p.Counter(obs.CtrAttacksInjected, 1)
	}
	return ids, nil
}

// InflateDensity turns the given nodes byzantine: each advertises its
// computed density multiplied by scale (> 1 inflates), which the honest
// R1 guard — comparing advertised densities, ties by identifier —
// cannot distinguish from truth. A sufficiently inflated liar captures
// headship of its neighborhood and holds it. The inflation persists
// until the node is evicted (EvictNodes resets it) or crashes. The call
// opens a ChurnAttack episode in the convergence ledger per node, so the
// disruption's spread is measured like any churn. All ids are validated
// before any node mutates.
//
// Detection: an inflated density is locally implausible — see
// ImplausibleNodes for the bound and EvictNodes for the response.
func (n *Network) InflateDensity(scale float64, ids ...int64) error {
	if err := n.applyOp(snapshot.Op{Kind: snapshot.OpScaleDensity, IDs: ids, Scale: scale}); err != nil {
		return err
	}
	if p := n.probe; p != nil {
		p.Counter(obs.CtrAttacksInjected, 1)
	}
	return nil
}

// scaleDensityImpl is the journaled implementation behind InflateDensity.
func (n *Network) scaleDensityImpl(ids []int64, scale float64) error {
	if scale <= 0 {
		return fmt.Errorf("selfstab: density scale %v <= 0", scale)
	}
	return n.applyToNodes(ids, notDead("is dead"), func(i int) error {
		if err := n.engine.MarkAttack(i); err != nil {
			return err
		}
		return n.engine.SetDensityScale(i, scale)
	})
}

// ImplausibleNodes returns the identifiers of alive nodes whose
// advertised density exceeds factor times the local plausibility bound.
// The bound is structural: a degree-d node's true density (links among
// {v} ∪ N(v) over d) is at most (d+1)/2, because the cache can hold at
// most d + C(d,2) links — no honest node can exceed it, so any node
// above it is lying about its neighborhood. factor 1 detects exactly at
// the bound; a margin (e.g. 1.1) tolerates transiently stale caches
// during convergence. Read-only; pair with EvictNodes to respond.
func (n *Network) ImplausibleNodes(factor float64) []int64 {
	idxs, all := n.engine.Implausible(factor), n.engine.IDs()
	ids := make([]int64, len(idxs))
	for k, i := range idxs {
		ids[k] = all[i]
	}
	return ids
}

// EvictNodes expels the given nodes from the clustering as a defense
// response (typically to ImplausibleNodes): each node's density
// inflation is reset, its protocol state cleared, and it restarts cold
// exactly like a crashed node — the honest protocol re-integrates it
// and headship returns to truthful density order. A sleeping node is
// evicted awake. Each eviction opens a ChurnAttack episode in the
// convergence ledger, so the cost of the defense (steps-to-restabilize)
// is measured by the same machinery as the attack. All ids are
// validated before any node mutates.
func (n *Network) EvictNodes(ids ...int64) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpEvictNodes, IDs: ids})
}

// SybilJoin floods the neighborhood of the target node with count sybil
// identities: new nodes placed deterministically on a ring of radius
// spread around the target (clamped to the deployment region), packing
// its radio range to distort local densities and force re-clustering.
// The sybils join through the normal arrival machinery — AddNodes
// journaling, fresh identifiers (returned in order), a ChurnJoin
// episode in the convergence ledger — so the clustering's response is
// scored like any churn burst. Evict sybils with RemoveNodes (they are
// ordinary nodes once joined; density plausibility does not flag them —
// their densities are honestly computed, which is what makes the attack
// interesting).
func (n *Network) SybilJoin(targetID int64, count int, spread float64) ([]int64, error) {
	if count < 1 {
		return nil, fmt.Errorf("selfstab: sybil burst of %d nodes", count)
	}
	if spread <= 0 {
		return nil, fmt.Errorf("selfstab: sybil spread %v <= 0", spread)
	}
	i, ok := n.IndexOf(targetID)
	if !ok {
		return nil, fmt.Errorf("selfstab: unknown node id %d", targetID)
	}
	center := n.grid.Points()[i]
	// Deterministic geometry, not an rng stream: a snapshot restored
	// mid-attack must produce the same placements for the same call on
	// both the original and the restored world.
	pts := make([]Point, count)
	for k := range pts {
		a := 2 * math.Pi * float64(k) / float64(count)
		pts[k] = n.region.Clamp(Point{
			X: center.X + float64(spread*math.Cos(a)),
			Y: center.Y + float64(spread*math.Sin(a)),
		})
	}
	ids, err := n.AddNodes(pts)
	if err != nil {
		return nil, err
	}
	if p := n.probe; p != nil {
		p.Counter(obs.CtrAttacksInjected, 1)
	}
	return ids, nil
}
