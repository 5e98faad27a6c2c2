package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"selfstab"
)

// runChurn drives the node-lifecycle churn subsystem from the command
// line: build and stabilize a network, optionally attach a traffic
// workload, run a churn scenario, and report the convergence ledger
// (plus the traffic ledger when flows are attached).
func runChurn(args []string, out io.Writer) error {
	w := recipe{nodes: 1000, seed: 1, radio: 0.1, ttl: 8, steps: 500}
	fs := w.flags("churn", "steps to run under churn")
	var (
		scenario   = fs.String("scenario", "steady", "scenario: steady, burst, blackout")
		arrival    = fs.Float64("arrival", 1, "mean node arrivals per step")
		departure  = fs.Float64("departure", 1, "mean permanent departures per step")
		crash      = fs.Float64("crash", 2, "mean state-losing reboots per step")
		sleep      = fs.Float64("sleep", 2, "mean duty-cycle sleeps per step")
		sleepSteps = fs.Int("sleepsteps", 15, "steps a scheduled sleep lasts")
		flows      = fs.Int("flows", 0, "unicast flows to carry through the churn (0: protocol only)")
		rate       = fs.Float64("rate", 0.2, "per-flow injection rate (packets per step)")
	)
	if err := w.parse(fs, args, out); err != nil {
		return err
	}
	if err := oneOf("churn scenario", scenario, "steady", "burst", "blackout"); err != nil {
		return err
	}
	// The churn rates are checked here, not by AttachChurn: the blackout
	// scenario never attaches the schedule.
	if *arrival < 0 || *departure < 0 || *crash < 0 || *sleep < 0 {
		return usageErrorf("churn rates must be non-negative (arrival %v, departure %v, crash %v, sleep %v)",
			*arrival, *departure, *crash, *sleep)
	}
	if *sleepSteps < 1 {
		return usageErrorf("sleepsteps %d must be at least 1", *sleepSteps)
	}
	if *flows > 0 && *rate <= 0 {
		return usageErrorf("-rate %v must be positive when flows are attached", *rate)
	}

	net, err := w.build(selfstab.WithStableWindow(10))
	if err != nil {
		return err
	}
	if *flows > 0 {
		ids := net.IDs()
		specs := make([]selfstab.Flow, 0, *flows)
		for i := 0; i < *flows; i++ {
			src := ids[(i*7)%len(ids)]
			dst := ids[(i*13+len(ids)/2)%len(ids)]
			specs = append(specs, selfstab.CBRFlow(src, dst, *rate))
		}
		if err := net.AttachTraffic(selfstab.TrafficConfig{QueueCap: 32, Flows: specs}); err != nil {
			return err
		}
	}

	cfg := selfstab.ChurnConfig{
		ArrivalRate:   *arrival,
		DepartureRate: *departure,
		CrashRate:     *crash,
		SleepRate:     *sleep,
		SleepSteps:    *sleepSteps,
	}
	switch *scenario {
	case "steady":
		// Continuous churn for the whole run, then recovery.
		if err := net.AttachChurn(cfg); err != nil {
			return err
		}
		if err := net.Run(w.steps); err != nil {
			return err
		}
		net.DetachChurn()
	case "burst":
		// A quiet third, one third of triple-rate churn, recovery.
		if err := net.Run(w.steps / 3); err != nil {
			return err
		}
		burst := cfg
		burst.ArrivalRate *= 3
		burst.DepartureRate *= 3
		burst.CrashRate *= 3
		burst.SleepRate *= 3
		if err := net.AttachChurn(burst); err != nil {
			return err
		}
		if err := net.Run(w.steps / 3); err != nil {
			return err
		}
		net.DetachChurn()
		if err := net.Run(w.steps - 2*(w.steps/3)); err != nil {
			return err
		}
	case "blackout":
		// A third of the population duty-cycles off at once, half the run
		// passes, everyone wakes — the mass-disruption stress case.
		ids := net.IDs()
		down := make([]int64, 0, len(ids)/3)
		for i := 0; i < len(ids); i += 3 {
			down = append(down, ids[i])
		}
		if err := net.Run(w.steps / 4); err != nil {
			return err
		}
		if err := net.SleepNodes(down...); err != nil {
			return err
		}
		if err := net.Run(w.steps / 2); err != nil {
			return err
		}
		if err := net.WakeNodes(down...); err != nil {
			return err
		}
		if err := net.Run(w.steps - w.steps/4 - w.steps/2); err != nil {
			return err
		}
	}
	// Let the survivors re-stabilize so the final episode closes, and
	// check that what they settled on is the legitimate clustering.
	if _, err := net.Stabilize(20000); err != nil {
		return err
	}
	if err := net.Verify(); err != nil {
		return err
	}

	alive, sleeping, dead := net.Population()
	fmt.Fprintf(out, "churn %s: %d slots (%d alive, %d sleeping, %d dead), %d steps, %d clusters\n",
		*scenario, net.N(), alive, sleeping, dead, net.StepCount(), len(net.Clusters()))
	renderConvergence(out, net.ConvergenceStats())
	if *flows > 0 {
		s, err := net.TrafficStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "traffic through the churn (%d flows):\n", *flows)
		renderTrafficStats(out, s)
	}
	return nil
}

// renderConvergence prints the convergence ledger summary.
func renderConvergence(out io.Writer, cs selfstab.ConvergenceStats) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	open := 0
	if cs.Open {
		open = 1
	}
	fmt.Fprintf(w, "  episodes\t%d\t(%d still converging)\n", len(cs.Disruptions), open)
	if len(cs.Disruptions) > 0 {
		var ops int
		for _, d := range cs.Disruptions {
			ops += d.Ops
		}
		fmt.Fprintf(w, "  disruptions\t%d\tfolded into the episodes\n", ops)
		fmt.Fprintf(w, "  steps to restabilize\tmean %.1f\tmax %d\n",
			cs.MeanStepsToStabilize, cs.MaxStepsToStabilize)
		fmt.Fprintf(w, "  affected radius (hops)\tmean %.1f\tmax %d\n",
			cs.MeanAffectedRadius, cs.MaxAffectedRadius)
		fmt.Fprintf(w, "  affected nodes\tmean %.1f\n", cs.MeanAffectedNodes)
	}
	w.Flush()
}
