package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"selfstab"
)

// runEnergy drives the live energy subsystem from the command line: build
// and stabilize a network, attach a convergecast workload and the battery
// model, run a lifetime, rotation or sleep-savings scenario, and report
// the energy ledger (plus the convergence ledger the depletions feed).
func runEnergy(args []string, out io.Writer) error {
	w := recipe{nodes: 500, seed: 1, radio: 0.1, ttl: 8, steps: 500}
	fs := w.flags("energy", "steps to run with batteries draining")
	var (
		scenario = fs.String("scenario", "lifetime", "scenario: lifetime, rotation, sleep-savings")
		sources  = fs.Int("sources", 40, "hotspot sources converging on one sink (0: no traffic)")
		rate     = fs.Float64("rate", 0.25, "per-source injection rate (packets per step)")
		capacity = fs.Float64("capacity", 1, "initial battery per node (energy units)")
		levels   = fs.Int("levels", 8, "rotation quantization levels")
	)
	if err := w.parse(fs, args, out); err != nil {
		return err
	}
	if err := oneOf("energy scenario", scenario, "lifetime", "rotation", "sleep-savings"); err != nil {
		return err
	}
	if *capacity <= 0 {
		return usageErrorf("capacity %v must be positive", *capacity)
	}
	if *sources < 0 || *sources > 0 && *rate <= 0 {
		return usageErrorf("sources %d must be non-negative, and rate %v positive when there are sources", *sources, *rate)
	}
	if *levels < 2 || *levels > 1024 {
		return usageErrorf("levels %d outside [2, 1024]", *levels)
	}
	// A hotspot has at most one source per node besides its sink.
	srcs := min(*sources, w.nodes-1)

	run := func(rotation, sleep bool) (*selfstab.Network, selfstab.EnergyStats, error) {
		net, err := w.build(selfstab.WithStableWindow(10))
		if err != nil {
			return nil, selfstab.EnergyStats{}, err
		}
		if srcs > 0 {
			if err := net.AttachTraffic(selfstab.TrafficConfig{
				QueueCap: 32,
				Flows:    []selfstab.Flow{selfstab.HotspotFlow(net.IDs()[0], srcs, *rate)},
			}); err != nil {
				return nil, selfstab.EnergyStats{}, err
			}
		}
		if err := net.AttachEnergy(selfstab.EnergyConfig{
			Capacity:       *capacity,
			Rotation:       rotation,
			RotationLevels: *levels,
		}); err != nil {
			return nil, selfstab.EnergyStats{}, err
		}
		if sleep {
			// Duty-cycle a third of the population through the run, the
			// schedule the sleep cost rewards.
			if err := net.AttachChurn(selfstab.ChurnConfig{
				SleepRate:  float64(w.nodes) / 100,
				SleepSteps: 25,
			}); err != nil {
				return nil, selfstab.EnergyStats{}, err
			}
		}
		if err := net.Run(w.steps); err != nil {
			return nil, selfstab.EnergyStats{}, err
		}
		es, err := net.EnergyStats()
		return net, es, err
	}

	switch *scenario {
	case "lifetime":
		net, es, err := run(false, false)
		if err != nil {
			return err
		}
		// Stop the drain and let the survivors re-stabilize so the final
		// depletion episode closes into the ledger, on the legitimate
		// clustering.
		net.DetachEnergy()
		if _, err := net.Stabilize(20000); err != nil {
			return err
		}
		if err := net.Verify(); err != nil {
			return err
		}
		alive, sleeping, dead := net.Population()
		fmt.Fprintf(out, "energy lifetime: %d nodes, %d steps, %d sources -> 1 sink\n",
			w.nodes, w.steps, srcs)
		fmt.Fprintf(out, "  population: %d alive, %d sleeping, %d dead\n", alive, sleeping, dead)
		renderEnergyStats(out, es)
		renderConvergence(out, net.ConvergenceStats())
	case "rotation":
		_, plain, err := run(false, false)
		if err != nil {
			return err
		}
		_, rotated, err := run(true, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "energy rotation: %d nodes, %d steps, same seed with and without energy-aware heads\n",
			w.nodes, w.steps)
		fmt.Fprintf(out, "  plain density:   first death %s, %d depletions, head share %.3f\n",
			deathStep(plain), plain.Depletions, plain.HeadShare)
		fmt.Fprintf(out, "  energy x density: first death %s, %d depletions, head share %.3f\n",
			deathStep(rotated), rotated.Depletions, rotated.HeadShare)
	case "sleep-savings":
		_, awake, err := run(false, false)
		if err != nil {
			return err
		}
		_, slept, err := run(false, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "energy sleep-savings: %d nodes, %d steps, same seed with and without duty-cycling\n",
			w.nodes, w.steps)
		fmt.Fprintf(out, "  always awake: drained %.2f, mean remaining %.3f\n",
			awake.TotalDrain, awake.MeanRemaining)
		fmt.Fprintf(out, "  duty-cycled:  drained %.2f, mean remaining %.3f (%d node-steps asleep)\n",
			slept.TotalDrain, slept.MeanRemaining, slept.SleepSteps)
	}
	return nil
}

func deathStep(es selfstab.EnergyStats) string {
	if es.FirstDeathStep < 0 {
		return "never"
	}
	return fmt.Sprintf("step %d", es.FirstDeathStep)
}

// renderEnergyStats prints the battery ledger as an aligned table.
func renderEnergyStats(out io.Writer, es selfstab.EnergyStats) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  first death\t%s\t(%d depletions)\n", deathStep(es), es.Depletions)
	fmt.Fprintf(w, "  drained\t%.2f\thead %.2f, member %.2f, sleep %.3f, tx %.2f, rx %.2f\n",
		es.TotalDrain, es.DrainHead, es.DrainMember, es.DrainSleep, es.DrainTx, es.DrainRx)
	fmt.Fprintf(w, "  remaining\tmean %.3f\tmin %.3f\n", es.MeanRemaining, es.MinRemaining)
	fmt.Fprintf(w, "  head share\t%.1f%%\tof awake node-steps\n", 100*es.HeadShare)
	fmt.Fprintf(w, "  energy deciles\t%v\t(operating nodes by remaining fraction)\n", es.Histogram)
	w.Flush()
}
