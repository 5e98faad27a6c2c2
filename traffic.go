package selfstab

import (
	"fmt"

	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
	"selfstab/internal/traffic"
)

// QueueDiscipline selects what a full per-node queue does with arrivals.
// It is snapshot.QueueDiscipline.
type QueueDiscipline = snapshot.QueueDiscipline

const (
	// DropTail rejects the arriving packet (FIFO tail drop). The default.
	DropTail = snapshot.DropTail
	// DropHead evicts the oldest queued packet to admit the new one.
	DropHead = snapshot.DropHead
)

// Flow is one traffic workload. Build flows with CBRFlow, PoissonFlow or
// HotspotFlow and pass them in a TrafficConfig. It is snapshot.Flow, the
// record the journal stores.
type Flow = snapshot.Flow

// CBRFlow is a constant-bit-rate unicast flow: rate packets per Δ(τ) step
// from srcID to dstID (fractional rates average out exactly — 0.25 injects
// every fourth step).
func CBRFlow(srcID, dstID int64, rate float64) Flow {
	return Flow{Kind: snapshot.CBR, SrcID: srcID, DstID: dstID, Rate: rate}
}

// PoissonFlow is a memoryless unicast flow: a Poisson-distributed number
// of packets per step with mean rate, from srcID to dstID.
func PoissonFlow(srcID, dstID int64, rate float64) Flow {
	return Flow{Kind: snapshot.Poisson, SrcID: srcID, DstID: dstID, Rate: rate}
}

// HotspotFlow is a many-to-one workload: sources distinct nodes, drawn
// deterministically from the network's rng at attach time, each send a
// Poisson stream of mean rate packets per step to the single sink — the
// convergecast pattern that concentrates load on the sink's cluster-head
// and the gateways toward it.
func HotspotFlow(sinkID int64, sources int, rate float64) Flow {
	return Flow{Kind: snapshot.Poisson, DstID: sinkID, Rate: rate, HotspotSources: sources}
}

// TrafficConfig parameterizes the packet data plane attached to a
// Network. It is snapshot.TrafficConfig, the record the journal stores.
type TrafficConfig = snapshot.TrafficConfig

// AttachTraffic installs a packet-level data plane that runs as a
// post-guard phase of every subsequent Δ(τ) step (Step, Run and Stabilize
// all drive it): flows inject packets, every node forwards queued packets
// one hop per step along the hierarchical routing table, and a metrics
// sink accounts for every packet. Call TrafficStats for the ledger.
//
// Forwarding follows the same epoch-keyed table as Route (see hierTable),
// so the data plane reacts to re-clustering (mobility, faults) exactly
// when the control plane does. All traffic randomness comes from a dedicated
// stream of the network's seed: runs are reproducible and, like the
// protocol itself, bit-identical at any parallelism.
//
// Attaching replaces any previously attached data plane and resets its
// statistics.
func (n *Network) AttachTraffic(cfg TrafficConfig) error {
	return n.applyOp(snapshot.Op{Kind: snapshot.OpAttachTraffic, Traffic: &cfg})
}

// attachTrafficImpl is the journaled implementation behind AttachTraffic.
// Hotspot flows are journaled unexpanded: expansion draws from the
// "traffic-flows" split stream here, at apply time, and reproduces on
// replay.
func (n *Network) attachTrafficImpl(cfg TrafficConfig) error {
	// Refuse everything refusable before the first Split: a failed attach
	// is not journaled, so it must not advance the master stream either.
	specs, err := n.resolveFlows(cfg.Flows)
	if err == nil {
		err = traffic.Validate(n.N(), cfg, specs)
	}
	if err != nil {
		return err
	}
	specs = n.expandFlows(cfg.Flows, specs)
	t, err := traffic.New(n.N(), cfg, specs, n.trafficHooks(), n.src.Split("traffic"))
	if err != nil {
		return err
	}
	n.flowIDs = n.pinFlowIDs(nil, specs)
	t.SetProbe(n.probe) // late attach inherits the network's probe
	n.traffic = t
	n.trafficOn = true
	return nil
}

// trafficHooks connects the data plane to this network's control plane:
// the epoch-keyed hierarchical table, the flat stretch baseline and the
// engine's liveness and headship.
func (n *Network) trafficHooks() traffic.Hooks {
	return traffic.Hooks{
		NextHop: func(cur, dst int) (int, bool) {
			table, err := n.hierTable()
			if err != nil {
				return -1, false
			}
			next, err := table.NextHop(cur, dst)
			if err != nil {
				return -1, false
			}
			return next, true
		},
		// The key hierTable resets on: the table, and so every NextHop
		// answer, is fixed while it holds.
		Epoch:       n.engine.Epoch,
		Dist:        n.flatDist,
		TopoVersion: n.grid.Graph().Version,
		Alive: func(i int) bool {
			return n.engine.Status(i) == runtime.StatusAlive
		},
		// IsHead feeds the per-head admission defense (SetTrafficDefense);
		// it is only consulted while that defense is installed.
		IsHead: func(i int) bool {
			return n.engine.Status(i) == runtime.StatusAlive && n.engine.IsHead(i)
		},
	}
}

// DetachTraffic removes the data plane; subsequent steps run the protocol
// (and any attached energy model) only. The final statistics remain
// readable via TrafficStats until the next AttachTraffic.
func (n *Network) DetachTraffic() {
	_ = n.applyOp(snapshot.Op{Kind: snapshot.OpDetachTraffic})
}

// resolveFlows maps each flow's identifiers to node indices, one spec per
// flow; a hotspot flow's spec stands in with its sink as the source until
// expandFlows draws the real ones. It draws no randomness, so a workload
// can be validated in full before the master stream advances.
func (n *Network) resolveFlows(flows []Flow) ([]traffic.FlowSpec, error) {
	specs := make([]traffic.FlowSpec, len(flows))
	for i, f := range flows {
		dst, dstOK := n.IndexOf(f.DstID)
		src := dst
		if f.HotspotSources > 0 {
			if !dstOK {
				return nil, fmt.Errorf("selfstab: flow %d: unknown sink id %d", i, f.DstID)
			}
			if f.HotspotSources > n.N()-1 {
				return nil, fmt.Errorf("selfstab: flow %d: %d hotspot sources for %d nodes", i, f.HotspotSources, n.N())
			}
		} else {
			var srcOK bool
			if src, srcOK = n.IndexOf(f.SrcID); !srcOK {
				return nil, fmt.Errorf("selfstab: flow %d: unknown source id %d", i, f.SrcID)
			}
			if !dstOK {
				return nil, fmt.Errorf("selfstab: flow %d: unknown destination id %d", i, f.DstID)
			}
		}
		specs[i] = traffic.FlowSpec{Kind: f.Kind, Src: src, Dst: dst, Rate: f.Rate, Start: f.Start, Stop: f.Stop}
	}
	return specs, nil
}

// expandFlows turns each hotspot flow's stand-in spec into one spec per
// source, a deterministic sample of distinct non-sink nodes: it walks a
// permutation seeded from the "traffic-flows" rng stream, skipping the
// sink. specs is resolveFlows' answer for flows.
func (n *Network) expandFlows(flows []Flow, specs []traffic.FlowSpec) []traffic.FlowSpec {
	src := n.src.Split("traffic-flows")
	out := make([]traffic.FlowSpec, 0, len(specs))
	for i, s := range specs {
		want := flows[i].HotspotSources
		if want <= 0 {
			out = append(out, s)
			continue
		}
		for _, u := range src.Perm(n.N()) {
			if u == s.Dst {
				continue
			}
			s.Src = u
			out = append(out, s)
			if want--; want == 0 {
				break
			}
		}
	}
	return out
}

// pinFlowIDs appends each spec's endpoints by identifier: indices
// renumber under Compact, identifiers never do, so the per-flow ledger
// addresses flows by id.
func (n *Network) pinFlowIDs(ids []flowEndpointIDs, specs []traffic.FlowSpec) []flowEndpointIDs {
	all := n.engine.IDs()
	for _, s := range specs {
		ids = append(ids, flowEndpointIDs{src: all[s.Src], dst: all[s.Dst]})
	}
	return ids
}

// FlowTrafficStats is the per-flow slice of the traffic ledger.
type FlowTrafficStats struct {
	SrcID, DstID int64
	Offered      int64
	Delivered    int64
	Dropped      int64
}

// TrafficStats is the data plane's ledger. The accounting identity
// Offered == Delivered + DropsQueue + DropsNoRoute + DropsTTL +
// DropsDeadEndpoint + DropsAdmission + DropsRateLimit + InFlight holds
// at every step boundary.
type TrafficStats struct {
	// Steps is how many steps the data plane itself has run (steps taken
	// since AttachTraffic, excluding any detached stretches) — the right
	// denominator for per-step rates regardless of how long stabilization
	// took before attach.
	Steps int

	Offered   int64
	Delivered int64
	InFlight  int64

	DropsQueue   int64 // queue overflow (either discipline)
	DropsNoRoute int64 // routing had no next hop (partition or transient assignment)
	DropsTTL     int64 // hop budget exceeded
	// DropsDeadEndpoint counts packets addressed to a dead or sleeping
	// node — at injection or discovered mid-flight — plus packets lost
	// with the queue of a crashed or removed node. Under churn the data
	// plane never errors on a vanished endpoint; it accounts it here.
	DropsDeadEndpoint int64
	// DropsAdmission and DropsRateLimit are the defense drops (see
	// SetTrafficDefense): packets a head's token bucket refused, and
	// packets the per-source injection cap refused. Kept separate from
	// the congestion reasons above so the attack-vs-defense delta is
	// directly measurable from the ledger.
	DropsAdmission int64
	DropsRateLimit int64

	// DeliveryRatio is Delivered over packets with a decided fate
	// (Offered - InFlight).
	DeliveryRatio float64

	// MeanHops is the mean hop count of delivered packets; MeanStretch is
	// the mean over delivered packets of hops / flat distance, where the
	// flat distance is the shortest-path hop count from the flow's source
	// to its destination on the topology at delivery — the path-stretch
	// cost of the hierarchy. A delivered packet has no sample when it took
	// no hop (a self-flow) or when its source is asleep, dead or cut off
	// from the destination by then. Under the churn of the mixed benchmark
	// workload that is under 1 % of deliveries (9 of 1 295 at seed 1, 6
	// of 940 at seed 3).
	MeanHops    float64
	MeanStretch float64

	// End-to-end latency percentiles in steps over delivered packets
	// (-1 when nothing was delivered).
	LatencyP50 int
	LatencyP90 int
	LatencyP99 int
	LatencyMax int

	// MeanLoad and MaxLoad summarize per-node forwarding events.
	// HeadLoadShare is the fraction of all forwarding done by current
	// cluster-heads against HeadFraction, the fraction of nodes that are
	// heads — their gap is the hotspot the hierarchy concentrates on
	// heads and gateways.
	MeanLoad      float64
	MaxLoad       int64
	HeadLoadShare float64
	HeadFraction  float64

	PerFlow []FlowTrafficStats
}

// TrafficStats snapshots the attached data plane's ledger. It fails if
// AttachTraffic was never called.
func (n *Network) TrafficStats() (TrafficStats, error) {
	if n.traffic == nil {
		return TrafficStats{}, fmt.Errorf("selfstab: no traffic attached")
	}
	ts := n.traffic.Stats()
	out := TrafficStats{
		Steps:             ts.Steps,
		Offered:           ts.Offered,
		Delivered:         ts.Delivered,
		InFlight:          ts.InFlight,
		DropsQueue:        ts.DropsQueue,
		DropsNoRoute:      ts.DropsNoRoute,
		DropsTTL:          ts.DropsTTL,
		DropsDeadEndpoint: ts.DropsDeadEndpoint,
		DropsAdmission:    ts.DropsAdmission,
		DropsRateLimit:    ts.DropsRateLimit,
		DeliveryRatio:     ts.DeliveryRatio,
		MeanHops:          ts.MeanHops,
		MeanStretch:       ts.MeanStretch,
		LatencyP50:        ts.LatencyP50,
		LatencyP90:        ts.LatencyP90,
		LatencyP99:        ts.LatencyP99,
		LatencyMax:        ts.LatencyMax,
		MeanLoad:          ts.MeanLoad,
		MaxLoad:           ts.MaxLoad,
	}
	// Head accounting over the operating population only: a dead slot's
	// state is reset to self-head and a sleeping node's is frozen, so
	// counting them would inflate the head fraction under churn. Slots
	// recycled by Compact contribute their history via the retired carry.
	load := n.traffic.Load()
	total := n.traffic.RetiredLoad()
	var headLoad int64
	heads, operating := 0, 0
	for i, l := range load {
		total += l
		if n.engine.Status(i) != runtime.StatusAlive {
			continue
		}
		operating++
		if n.engine.IsHead(i) {
			heads++
			headLoad += l
		}
	}
	if total > 0 {
		out.HeadLoadShare = float64(headLoad) / float64(total)
	}
	if operating > 0 {
		out.HeadFraction = float64(heads) / float64(operating)
	}
	out.PerFlow = make([]FlowTrafficStats, len(ts.Flows))
	for i, f := range ts.Flows {
		out.PerFlow[i] = FlowTrafficStats{
			SrcID: n.flowIDs[i].src, DstID: n.flowIDs[i].dst,
			Offered: f.Offered, Delivered: f.Delivered, Dropped: f.Dropped,
		}
	}
	return out, nil
}
