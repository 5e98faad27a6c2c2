package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
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
	fs := flag.NewFlagSet("selfstab-sim traffic", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 1000, "network size")
		steps    = fs.Int("steps", 500, "traffic steps to run after stabilization")
		flows    = fs.Int("flows", 100, "number of concurrent flows")
		workload = fs.String("workload", "mixed", "workload: cbr, poisson, hotspot, mixed")
		rate     = fs.Float64("rate", 0.2, "per-flow injection rate (packets per step)")
		seed     = fs.Int64("seed", 1, "master random seed")
		radioRng = fs.Float64("range", 0.1, "radio transmission range")
		queue    = fs.Int("queue", 32, "per-node queue capacity")
		budget   = fs.Int("budget", 1, "packets forwarded per node per step")
		scenario = fs.String("scenario", "static", "scenario: static, mobility, faults")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate names up front: a typo must fail fast with usage, not
	// after a full network build and stabilization.
	switch strings.ToLower(*scenario) {
	case "static", "mobility", "faults":
	default:
		return usageErrorf("unknown traffic scenario %q (want static, mobility or faults)", *scenario)
	}
	switch strings.ToLower(*workload) {
	case "cbr", "poisson", "hotspot", "mixed":
	default:
		return usageErrorf("unknown workload %q (want cbr, poisson, hotspot or mixed)", *workload)
	}
	if err := checkRun(*nodes, *steps); err != nil {
		return err
	}
	if *flows < 1 || *rate <= 0 {
		return usageErrorf("-flows %d must be at least 1 and -rate %v positive", *flows, *rate)
	}

	net, err := selfstab.NewRandomNetwork(*nodes,
		selfstab.WithSeed(*seed),
		selfstab.WithRange(*radioRng),
		selfstab.WithCacheTTL(8),
	)
	if err != nil {
		return err
	}
	if _, err := net.Stabilize(5000); err != nil {
		return err
	}
	specs, err := buildWorkload(net, *workload, *flows, *rate, *seed)
	if err != nil {
		return err
	}
	if err := net.AttachTraffic(selfstab.TrafficConfig{
		QueueCap: *queue,
		Budget:   *budget,
		Flows:    specs,
	}); err != nil {
		return err
	}

	switch strings.ToLower(*scenario) {
	case "static":
		if err := net.Run(*steps); err != nil {
			return err
		}
	case "mobility":
		if err := runMobilityScenario(net, *steps, *seed); err != nil {
			return err
		}
	case "faults":
		if err := net.Run(*steps / 2); err != nil {
			return err
		}
		net.InjectFaults(0.5)
		if err := net.Run(*steps - *steps/2); err != nil {
			return err
		}
	}

	s, err := net.TrafficStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "traffic %s/%s: %d nodes, %d flows, %d steps\n",
		*scenario, *workload, net.N(), len(specs), *steps)
	renderTrafficStats(out, s)
	return nil
}

// buildWorkload expands a named workload into flows over the network's
// identifiers, deterministically from the seed.
func buildWorkload(net *selfstab.Network, workload string, flows int, rate float64, seed int64) ([]selfstab.Flow, error) {
	ids := net.IDs()
	if len(ids) < 2 {
		return nil, fmt.Errorf("need at least 2 nodes for traffic")
	}
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
	switch strings.ToLower(workload) {
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
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return out, nil
}

// runMobilityScenario moves every node on the mobility experiments'
// random walk at pedestrian speeds (0-1.6 m/s), one 2 s walk sample
// between bursts of protocol+traffic steps.
func runMobilityScenario(net *selfstab.Network, steps int, seed int64) error {
	const burst = 10 // protocol steps between motion samples
	walk, err := mobility.NewRandomWalk(net.Positions(), geom.UnitSquare(),
		0, mobility.SpeedToUnits(1.6), 30, rng.New(seed).Split("mobility-walk"))
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
		walk.Step(2)
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
	fmt.Fprintf(w, "  latency steps\tp50 %d\tp90 %d, p99 %d, max %d\n",
		s.LatencyP50, s.LatencyP90, s.LatencyP99, s.LatencyMax)
	fmt.Fprintf(w, "  node load\tmean %.1f\tmax %d\n", s.MeanLoad, s.MaxLoad)
	fmt.Fprintf(w, "  head load share\t%.1f%%\t(heads are %.1f%% of nodes)\n",
		100*s.HeadLoadShare, 100*s.HeadFraction)
	w.Flush()
}
