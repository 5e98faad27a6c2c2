package selfstab

import (
	"fmt"

	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
	"selfstab/internal/traffic"
)

// QueueDiscipline selects what a full per-node queue does with arrivals.
type QueueDiscipline int

const (
	// DropTail rejects the arriving packet (FIFO tail drop). The default.
	DropTail QueueDiscipline = iota
	// DropHead evicts the oldest queued packet to admit the new one.
	DropHead
)

// Flow is one traffic workload. Build flows with CBRFlow, PoissonFlow or
// HotspotFlow and pass them in a TrafficConfig.
type Flow struct {
	kind       traffic.FlowKind
	srcID      int64
	dstID      int64
	rate       float64
	start      int
	stop       int
	hotSources int // > 0: many-to-one, expanded at attach time
}

// CBRFlow is a constant-bit-rate unicast flow: rate packets per Δ(τ) step
// from srcID to dstID (fractional rates average out exactly — 0.25 injects
// every fourth step).
func CBRFlow(srcID, dstID int64, rate float64) Flow {
	return Flow{kind: traffic.CBR, srcID: srcID, dstID: dstID, rate: rate}
}

// PoissonFlow is a memoryless unicast flow: a Poisson-distributed number
// of packets per step with mean rate, from srcID to dstID.
func PoissonFlow(srcID, dstID int64, rate float64) Flow {
	return Flow{kind: traffic.Poisson, srcID: srcID, dstID: dstID, rate: rate}
}

// HotspotFlow is a many-to-one workload: sources distinct nodes, drawn
// deterministically from the network's rng at attach time, each send a
// Poisson stream of mean rate packets per step to the single sink — the
// convergecast pattern that concentrates load on the sink's cluster-head
// and the gateways toward it.
func HotspotFlow(sinkID int64, sources int, rate float64) Flow {
	return Flow{kind: traffic.Poisson, dstID: sinkID, rate: rate, hotSources: sources}
}

// Between restricts the flow to inject only in steps [start, stop]
// (1-based, counted in completed protocol steps; stop 0 means forever).
func (f Flow) Between(start, stop int) Flow {
	f.start, f.stop = start, stop
	return f
}

// TrafficConfig parameterizes the packet data plane attached to a Network.
type TrafficConfig struct {
	// QueueCap bounds each node's forwarding queue. Default 64.
	QueueCap int
	// Discipline is the queue-overflow policy. Default DropTail.
	Discipline QueueDiscipline
	// Budget is how many packets a node forwards per step (the link
	// capacity abstraction). Default 1.
	Budget int
	// TTL drops packets exceeding this many hops. Default 64.
	TTL int
	// Flows is the workload; at least one flow is required.
	Flows []Flow
}

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
	sc, err := trafficToSnapshot(cfg)
	if err != nil {
		return err
	}
	return n.applyOp(snapshot.Op{Kind: snapshot.OpAttachTraffic, Traffic: &sc})
}

// attachTrafficImpl is the journaled implementation behind AttachTraffic.
// Hotspot flows are journaled unexpanded: expansion draws from the
// "traffic-flows" split stream here, at apply time, and reproduces on
// replay.
func (n *Network) attachTrafficImpl(sc snapshot.TrafficConfig) error {
	cfg, err := trafficFromSnapshot(sc)
	if err != nil {
		return err
	}
	specs, err := n.expandFlows(cfg.Flows)
	if err != nil {
		return err
	}
	var disc traffic.Discipline
	switch cfg.Discipline {
	case DropTail:
		disc = traffic.DropTail
	case DropHead:
		disc = traffic.DropHead
	default:
		return fmt.Errorf("selfstab: invalid queue discipline %d", int(cfg.Discipline))
	}
	tc := traffic.Config{
		QueueCap:   cfg.QueueCap,
		Discipline: disc,
		Budget:     cfg.Budget,
		TTL:        cfg.TTL,
		Flows:      specs,
	}
	hooks := traffic.Hooks{
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
		Dist:      n.flatDist,
		TopoEpoch: func() uint64 { return n.topoEpoch },
		Alive: func(i int) bool {
			return n.engine.Status(i) == runtime.StatusAlive
		},
		// IsHead feeds the per-head admission defense (SetTrafficDefense);
		// it is only consulted while that defense is installed.
		IsHead: func(i int) bool {
			return n.engine.Status(i) == runtime.StatusAlive && n.engine.Node(i).IsHead()
		},
	}
	t, err := traffic.New(len(n.pts), tc, hooks, n.src.Split("traffic"))
	if err != nil {
		return err
	}
	// Pin each flow's endpoints by identifier: indices renumber under
	// Compact, so the per-flow ledger addresses flows by id instead.
	n.flowIDs = make([]flowEndpointIDs, len(specs))
	for i, s := range specs {
		n.flowIDs[i] = flowEndpointIDs{src: n.ids[s.Src], dst: n.ids[s.Dst]}
	}
	t.SetProbe(n.probe) // late attach inherits the network's probe
	n.traffic = t
	n.trafficOn = true
	cfgCopy := cfg
	cfgCopy.Flows = append([]Flow(nil), cfg.Flows...)
	n.lastTraffic = &cfgCopy
	n.installStepPhases()
	return nil
}

// DetachTraffic removes the data plane; subsequent steps run the protocol
// (and any attached energy model) only. The final statistics remain
// readable via TrafficStats until the next AttachTraffic.
func (n *Network) DetachTraffic() {
	_ = n.applyOp(snapshot.Op{Kind: snapshot.OpDetachTraffic})
}

// TrafficConfig returns a copy of the config of the last AttachTraffic
// call and whether traffic is currently attached and running. The serving
// layer uses it to spawn additional flows online: append to Flows and
// re-attach (which resets the traffic ledger — see the README's serving
// section).
func (n *Network) TrafficConfig() (TrafficConfig, bool) {
	if n.lastTraffic == nil {
		return TrafficConfig{}, false
	}
	out := *n.lastTraffic
	out.Flows = append([]Flow(nil), n.lastTraffic.Flows...)
	return out, n.trafficOn
}

// expandFlows resolves identifiers to indices and expands hotspot
// workloads into per-source specs using the deterministic "traffic-flows"
// rng stream.
func (n *Network) expandFlows(flows []Flow) ([]traffic.FlowSpec, error) {
	src := n.src.Split("traffic-flows")
	var specs []traffic.FlowSpec
	for i, f := range flows {
		if f.hotSources > 0 {
			sink, ok := n.IndexOf(f.dstID)
			if !ok {
				return nil, fmt.Errorf("selfstab: flow %d: unknown sink id %d", i, f.dstID)
			}
			if f.hotSources > len(n.pts)-1 {
				return nil, fmt.Errorf("selfstab: flow %d: %d hotspot sources for %d nodes", i, f.hotSources, len(n.pts))
			}
			// A deterministic sample of distinct non-sink sources: walk a
			// seeded permutation, skipping the sink.
			perm := src.Perm(len(n.pts))
			picked := 0
			for _, u := range perm {
				if u == sink {
					continue
				}
				specs = append(specs, traffic.FlowSpec{
					Kind: f.kind, Src: u, Dst: sink, Rate: f.rate,
					Start: f.start, Stop: f.stop,
				})
				if picked++; picked == f.hotSources {
					break
				}
			}
			continue
		}
		su, ok := n.IndexOf(f.srcID)
		if !ok {
			return nil, fmt.Errorf("selfstab: flow %d: unknown source id %d", i, f.srcID)
		}
		du, ok := n.IndexOf(f.dstID)
		if !ok {
			return nil, fmt.Errorf("selfstab: flow %d: unknown destination id %d", i, f.dstID)
		}
		specs = append(specs, traffic.FlowSpec{
			Kind: f.kind, Src: su, Dst: du, Rate: f.rate,
			Start: f.start, Stop: f.stop,
		})
	}
	return specs, nil
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
	// the mean ratio of hierarchical hops to flat shortest-path hops — the
	// path-stretch cost of the hierarchy.
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
		if n.engine.Node(i).IsHead() {
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

// TrafficLoad returns the per-node forwarding-event counts of the attached
// data plane, indexed like Positions — the raw material for load-hotspot
// analysis beyond the summary in TrafficStats.
func (n *Network) TrafficLoad() ([]int64, error) {
	if n.traffic == nil {
		return nil, fmt.Errorf("selfstab: no traffic attached")
	}
	return n.traffic.Load(), nil
}
