// Trafficstorm: the packet-level traffic subsystem at the paper's scale.
// A 1000-node network carries 100+ concurrent flows — CBR and Poisson
// unicast pairs plus a many-to-one hotspot — for 500 Δ(τ) steps under
// three scenarios:
//
//  1. static: the converged clustering routes a steady workload;
//  2. mobility: every node random-walks while the protocol re-stabilizes
//     and the data plane keeps forwarding over the live clustering;
//  3. faults: half the nodes are corrupted mid-run and traffic rides
//     through the self-stabilizing recovery.
//
// Each scenario reports delivery ratio, hop count, path stretch against
// flat shortest paths, end-to-end latency percentiles, and the per-node
// forwarding-load concentration the hierarchy creates on heads and
// gateways.
package main

import (
	"fmt"
	"log"

	"selfstab"
	"selfstab/internal/geom"
	"selfstab/internal/mobility"
	"selfstab/internal/rng"
)

const (
	nodes      = 1000
	steps      = 500
	unicast    = 90 // CBR + Poisson point-to-point flows
	hotSources = 20 // many-to-one hotspot sources (>= 110 flows total)
	rate       = 0.1
	radioRange = 0.1
	budget     = 4 // per-node forwarding budget per step
	seed       = 2025
)

func main() {
	fmt.Printf("trafficstorm: %d nodes x %d steps, %d flows (%d unicast + %d hotspot sources)\n\n",
		nodes, steps, unicast+hotSources, unicast, hotSources)
	runScenario("static Poisson network", func(net *selfstab.Network) error {
		return net.Run(steps)
	})
	runScenario("mobility trace", func(net *selfstab.Network) error {
		return randomWalk(net, steps)
	})
	runScenario("post-fault recovery", func(net *selfstab.Network) error {
		if err := net.Run(steps / 2); err != nil {
			return err
		}
		net.InjectFaults(0.5) // corrupt half the network mid-run
		return net.Run(steps - steps/2)
	})
}

// runScenario builds a fresh network, attaches the standard workload and
// hands the stepping policy to drive.
func runScenario(name string, drive func(*selfstab.Network) error) {
	net, err := selfstab.NewPoissonNetwork(nodes,
		selfstab.WithSeed(seed),
		selfstab.WithRange(radioRange),
		selfstab.WithCacheTTL(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := net.Stabilize(5000); err != nil {
		log.Fatal(err)
	}
	if err := net.AttachTraffic(selfstab.TrafficConfig{
		QueueCap: 32,
		Budget:   budget,
		Flows:    workload(net),
	}); err != nil {
		log.Fatal(err)
	}
	if err := drive(net); err != nil {
		log.Fatal(err)
	}
	s, err := net.TrafficStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n", name)
	fmt.Printf("  delivery ratio %.3f  (%d/%d decided; drops: queue %d, no-route %d, ttl %d)\n",
		s.DeliveryRatio, s.Delivered, s.Offered-s.InFlight, s.DropsQueue, s.DropsNoRoute, s.DropsTTL)
	fmt.Printf("  mean hops %.2f, stretch vs flat %.3f\n", s.MeanHops, s.MeanStretch)
	fmt.Printf("  latency steps: p50 %d, p90 %d, p99 %d, max %d\n",
		s.LatencyP50, s.LatencyP90, s.LatencyP99, s.LatencyMax)
	fmt.Printf("  forwarding load: mean %.1f, max %d; heads carry %.1f%% of traffic (%.1f%% of nodes)\n\n",
		s.MeanLoad, s.MaxLoad, 100*s.HeadLoadShare, 100*s.HeadFraction)
}

// workload is the standard 110-flow mix, deterministic given the seed.
func workload(net *selfstab.Network) []selfstab.Flow {
	ids := net.IDs()
	r := rng.New(seed).Split("workload")
	pair := func() (int64, int64) {
		src := ids[r.Intn(len(ids))]
		dst := ids[r.Intn(len(ids))]
		for dst == src {
			dst = ids[r.Intn(len(ids))]
		}
		return src, dst
	}
	flows := make([]selfstab.Flow, 0, unicast+1)
	for i := 0; i < unicast; i++ {
		src, dst := pair()
		if i%2 == 0 {
			flows = append(flows, selfstab.CBRFlow(src, dst, rate))
		} else {
			flows = append(flows, selfstab.PoissonFlow(src, dst, rate))
		}
	}
	flows = append(flows, selfstab.HotspotFlow(ids[r.Intn(len(ids))], hotSources, rate))
	return flows
}

// randomWalk moves every node on the mobility experiments' random walk
// at pedestrian speeds (0-1.6 m/s), one 2 s walk sample after each burst
// of protocol+traffic steps.
func randomWalk(net *selfstab.Network, total int) error {
	const burst = 10
	walk, err := mobility.NewRandomWalk(net.Positions(), geom.UnitSquare(),
		0, mobility.SpeedToUnits(1.6), 30, rng.New(seed).Split("storm-walk"))
	if err != nil {
		return err
	}
	for done := 0; done < total; {
		n := burst
		if rem := total - done; n > rem {
			n = rem
		}
		if err := net.Run(n); err != nil {
			return err
		}
		done += n
		walk.Step(2)
		if err := net.SetPositions(walk.Positions()); err != nil {
			return err
		}
	}
	return nil
}
