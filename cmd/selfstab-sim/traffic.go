package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"selfstab"
	"selfstab/internal/geom"
	"selfstab/internal/mobility"
	"selfstab/internal/rng"
)

// runTraffic drives the packet-level traffic subsystem from the command
// line: build a network, attach a workload, run a scenario, report the
// delivery/latency/load ledger.
func runTraffic(args []string, out io.Writer) error {
	w := recipe{nodes: 1000, seed: 1, radio: 0.1, ttl: 8, steps: 500}
	fs := w.flags("traffic", "traffic steps to run after stabilization")
	var (
		flows    = fs.Int("flows", 100, "number of concurrent flows")
		workload = fs.String("workload", "mixed", "workload: cbr, poisson, hotspot, mixed")
		rate     = fs.Float64("rate", 0.2, "per-flow injection rate (packets per step)")
		queue    = fs.Int("queue", 32, "per-node queue capacity")
		budget   = fs.Int("budget", 1, "packets forwarded per node per step")
		scenario = fs.String("scenario", "static", "scenario: static, mobility, faults")
	)
	if err := w.parse(fs, args, out); err != nil {
		return err
	}
	if err := oneOf("traffic scenario", scenario, "static", "mobility", "faults"); err != nil {
		return err
	}
	if err := oneOf("workload", workload, "cbr", "poisson", "hotspot", "mixed"); err != nil {
		return err
	}
	if *flows < 1 || *queue < 1 || *budget < 1 || *rate <= 0 {
		return usageErrorf("-flows %d, -queue %d and -budget %d must each be at least 1 and -rate %v positive", *flows, *queue, *budget, *rate)
	}

	net, err := w.build()
	if err != nil {
		return err
	}
	if err := net.AttachTraffic(selfstab.TrafficConfig{
		QueueCap: *queue,
		Budget:   *budget,
		Flows:    buildWorkload(net, *workload, *flows, *rate, w.seed),
	}); err != nil {
		return err
	}

	switch *scenario {
	case "static":
		if err := net.Run(w.steps); err != nil {
			return err
		}
	case "mobility":
		if err := runMobilityScenario(net, w.steps, w.seed); err != nil {
			return err
		}
	case "faults":
		if err := net.Run(w.steps / 2); err != nil {
			return err
		}
		net.InjectFaults(0.5)
		if err := net.Run(w.steps - w.steps/2); err != nil {
			return err
		}
	}

	s, err := net.TrafficStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "traffic %s/%s: %d nodes, %d flows, %d steps\n",
		*scenario, *workload, net.N(), len(s.PerFlow), w.steps)
	renderTrafficStats(out, s)
	return nil
}

// buildWorkload expands a named workload (lower case, already checked)
// into flows over the identifiers of a network of at least 2 nodes,
// deterministically from the seed.
func buildWorkload(net *selfstab.Network, workload string, flows int, rate float64, seed int64) []selfstab.Flow {
	ids := net.IDs()
	// One labeled stream off the master seed: adding draws to another
	// subsystem (say, the mobility walk below) can never perturb the
	// workload, which keeps every scenario reproducible from -seed alone.
	r := rng.New(seed).Split("workload")
	pair := func() (int64, int64) {
		src := ids[r.Intn(len(ids))]
		dst := ids[r.Intn(len(ids))]
		for dst == src {
			dst = ids[r.Intn(len(ids))]
		}
		return src, dst
	}
	var out []selfstab.Flow
	switch workload {
	case "cbr":
		for i := 0; i < flows; i++ {
			src, dst := pair()
			out = append(out, selfstab.CBRFlow(src, dst, rate))
		}
	case "poisson":
		for i := 0; i < flows; i++ {
			src, dst := pair()
			out = append(out, selfstab.PoissonFlow(src, dst, rate))
		}
	case "hotspot":
		sources := flows
		if max := len(ids) - 1; sources > max {
			sources = max
		}
		out = append(out, selfstab.HotspotFlow(ids[r.Intn(len(ids))], sources, rate))
	case "mixed":
		unicast := flows * 9 / 10
		for i := 0; i < unicast; i++ {
			src, dst := pair()
			if i%2 == 0 {
				out = append(out, selfstab.CBRFlow(src, dst, rate))
			} else {
				out = append(out, selfstab.PoissonFlow(src, dst, rate))
			}
		}
		if hot := flows - unicast; hot > 0 {
			out = append(out, selfstab.HotspotFlow(ids[r.Intn(len(ids))], hot, rate))
		}
	}
	return out
}

// runMobilityScenario moves every node on the mobility experiments'
// random walk in the paper's pedestrian band, one walk sample of the
// paper's period between bursts of protocol+traffic steps.
func runMobilityScenario(net *selfstab.Network, steps int, seed int64) error {
	const burst = 10 // protocol steps between motion samples
	walk, err := mobility.NewRandomWalk(net.Positions(), geom.UnitSquare(),
		mobility.SpeedToUnits(mobility.Pedestrian[0]), mobility.SpeedToUnits(mobility.Pedestrian[1]),
		rng.New(seed).Split("mobility-walk"))
	if err != nil {
		return err
	}
	for done := 0; done < steps; {
		n := burst
		if rem := steps - done; n > rem {
			n = rem
		}
		if err := net.Run(n); err != nil {
			return err
		}
		done += n
		walk.Step(mobility.SampleSec)
		if err := net.SetPositions(walk.Positions()); err != nil {
			return err
		}
	}
	return nil
}

// renderTrafficStats prints the ledger as an aligned table.
func renderTrafficStats(out io.Writer, s selfstab.TrafficStats) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  offered\t%d\n", s.Offered)
	fmt.Fprintf(w, "  delivered\t%d\t(ratio %.3f)\n", s.Delivered, s.DeliveryRatio)
	fmt.Fprintf(w, "  in flight\t%d\n", s.InFlight)
	fmt.Fprintf(w, "  drops\t%d\tqueue %d, no-route %d, ttl %d, dead-endpoint %d\n",
		s.DropsQueue+s.DropsNoRoute+s.DropsTTL+s.DropsDeadEndpoint,
		s.DropsQueue, s.DropsNoRoute, s.DropsTTL, s.DropsDeadEndpoint)
	fmt.Fprintf(w, "  hops (mean)\t%.2f\tstretch vs flat %.3f\n", s.MeanHops, s.MeanStretch)
	if s.Delivered == 0 {
		fmt.Fprintf(w, "  latency steps\tnone delivered\n")
	} else {
		fmt.Fprintf(w, "  latency steps\tp50 %d\tp90 %d, p99 %d, max %d\n",
			s.LatencyP50, s.LatencyP90, s.LatencyP99, s.LatencyMax)
	}
	fmt.Fprintf(w, "  node load\tmean %.1f\tmax %d\n", s.MeanLoad, s.MaxLoad)
	fmt.Fprintf(w, "  head load share\t%.1f%%\t(heads are %.1f%% of nodes)\n",
		100*s.HeadLoadShare, 100*s.HeadFraction)
	w.Flush()
}
