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
		// The key hierTable brings the table up to date on: the table,
		// and so every NextHop answer, is fixed while it holds.
		Epoch:       n.engine.Epoch,
		Dist:        n.flatDist,
		TopoVersion: n.grid.Graph().Version,
		Alive: func(i int) bool {
			return n.engine.Status(i) == runtime.StatusAlive
		},
		// IsHead feeds the per-head admission defense (SetTrafficDefense)
		// and the ledger's head accounting (HeadLoadShare, HeadFraction).
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
		specs[i] = traffic.FlowSpec{Kind: f.Kind, Src: src, Dst: dst, SrcID: f.SrcID, DstID: f.DstID, Rate: f.Rate, Start: f.Start, Stop: f.Stop}
	}
	return specs, nil
}

// expandFlows turns each hotspot flow's stand-in spec into one spec per
// source, a deterministic sample of distinct non-sink nodes: it walks a
// permutation seeded from the "traffic-flows" rng stream, skipping the
// sink. specs is resolveFlows' answer for flows.
func (n *Network) expandFlows(flows []Flow, specs []traffic.FlowSpec) []traffic.FlowSpec {
	src, ids := n.src.Split("traffic-flows"), n.engine.IDs()
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
			s.Src, s.SrcID = u, ids[u]
			out = append(out, s)
			if want--; want == 0 {
				break
			}
		}
	}
	return out
}

// TrafficStats is the data plane's ledger. It is traffic.Stats, the
// record the engine keeps (internal/traffic documents every field).
type TrafficStats = traffic.Stats

// FlowTrafficStats is the per-flow slice of the traffic ledger. It is
// traffic.FlowStats.
type FlowTrafficStats = traffic.FlowStats

// TrafficStats snapshots the attached data plane's ledger. It fails if
// AttachTraffic was never called.
func (n *Network) TrafficStats() (TrafficStats, error) {
	if n.traffic == nil {
		return TrafficStats{}, fmt.Errorf("selfstab: no traffic attached")
	}
	return n.traffic.Stats(), nil
}
