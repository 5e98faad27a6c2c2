package main

import (
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"text/tabwriter"
	"time"

	"selfstab"
)

// runScale exercises the engine at production scale from the command
// line: build a large network (default 100k nodes at constant mean
// degree), cold-stabilize it, and measure what a step costs once the
// network is quiescent versus under sustained churn — with dead-slot
// auto-compaction keeping the slot count tied to the operating
// population. The quiescent scenario is the frontier engine's O(1)
// claim made visible; the churn scenario is the compaction story.
func runScale(args []string, out io.Writer) error {
	w := recipe{nodes: 100_000, seed: 1, steps: 200}
	fs := w.flags("scale", "steps to measure per scenario")
	var (
		degree   = fs.Float64("degree", 10, "target mean radio degree (sets the range)")
		scenario = fs.String("scenario", "quiescent", "scenario: quiescent, churn")
		compact  = fs.Float64("compact", 0.25, "dead-slot fraction triggering auto-compaction (churn scenario; 0 disables)")
		churnPct = fs.Float64("churnrate", 0.0005, "per-step arrival and departure rate as a fraction of the population (churn scenario)")
	)
	if err := w.parse(fs, args, out); err != nil {
		return err
	}
	if err := oneOf("scale scenario", scenario, "quiescent", "churn"); err != nil {
		return err
	}
	if w.nodes < 10 {
		return usageErrorf("scale needs at least 10 nodes, got %d", w.nodes)
	}
	if *degree <= 0 {
		return usageErrorf("degree %v must be positive", *degree)
	}
	if *compact < 0 || *compact > 1 {
		return usageErrorf("compact fraction %v outside [0, 1]", *compact)
	}
	if *churnPct < 0 {
		return usageErrorf("churnrate %v must be non-negative", *churnPct)
	}

	radioRng := math.Sqrt(*degree / (math.Pi * float64(w.nodes)))
	if radioRng > 1 {
		radioRng = 1
	}
	fmt.Fprintf(out, "scale: %d nodes, range %.4f (mean degree ~%.0f), %d measured steps, scenario %s\n",
		w.nodes, radioRng, *degree, w.steps, *scenario)

	buildStart := time.Now()
	net, err := selfstab.NewRandomNetwork(w.nodes,
		selfstab.WithSeed(w.seed),
		selfstab.WithRange(radioRng),
		selfstab.WithCacheTTL(8),
		selfstab.WithStableWindow(10),
	)
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)

	stabStart := time.Now()
	at, err := net.Stabilize(10_000)
	if err != nil {
		return err
	}
	stabTime := time.Since(stabStart)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "build\t%v\n", buildTime.Round(time.Millisecond))
	fmt.Fprintf(tw, "cold stabilize\t%v\t(stable at step %d)\n", stabTime.Round(time.Millisecond), at)
	fmt.Fprintf(tw, "frontier stepping\t%v\n", net.SparseStepping())

	switch *scenario {
	case "quiescent":
		runStart := time.Now()
		if err := net.Run(w.steps); err != nil {
			return err
		}
		perStep := time.Since(runStart) / time.Duration(w.steps)
		fmt.Fprintf(tw, "quiescent step\t%v\t(O(frontier): cost tracks activity, not size)\n", perStep)
	case "churn":
		if err := net.SetAutoCompact(*compact); err != nil {
			return err
		}
		rate := *churnPct * float64(w.nodes)
		if err := net.AttachChurn(selfstab.ChurnConfig{
			ArrivalRate:   rate,
			DepartureRate: rate,
		}); err != nil {
			return err
		}
		slotsBefore := net.N()
		runStart := time.Now()
		if err := net.Run(w.steps); err != nil {
			return err
		}
		perStep := time.Since(runStart) / time.Duration(w.steps)
		alive, sleeping, dead := net.Population()
		fmt.Fprintf(tw, "churn step\t%v\t(~%.0f arrivals + %.0f departures per step)\n", perStep, rate, rate)
		fmt.Fprintf(tw, "slots\t%d -> %d\t(operating %d, dead %d; auto-compact at %.0f%%)\n",
			slotsBefore, net.N(), alive+sleeping, dead, *compact*100)
		cs := net.ConvergenceStats()
		fmt.Fprintf(tw, "disruption episodes\t%d\t(mean %.1f steps to restabilize)\n",
			len(cs.Disruptions), cs.MeanStepsToStabilize)
	}
	var mem goruntime.MemStats
	goruntime.ReadMemStats(&mem)
	fmt.Fprintf(tw, "heap in use\t%.1f MB\n", float64(mem.HeapInuse)/(1<<20))
	return tw.Flush()
}
