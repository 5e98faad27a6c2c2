package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"selfstab"
)

// runTrace records a Chrome trace-event profile of a simulation run: it
// builds a world, optionally preloads a scenario (same names as serve's
// -preload), attaches an instrumentation collector, runs the requested
// steps, and writes the trace JSON — loadable at chrome://tracing or
// https://ui.perfetto.dev — to -o or stdout.
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 500, "network size (uniform random deployment)")
		seed     = fs.Int64("seed", 1, "master random seed")
		radioRng = fs.Float64("range", 0.1, "radio transmission range")
		cachettl = fs.Int("cachettl", 8, "neighbor cache TTL in steps (needed for churn and energy)")
		steps    = fs.Int("steps", 200, "steps to run and record after cold stabilization")
		scenario = fs.String("scenario", "mixed", "workload during the recording: none, traffic, churn or mixed")
		outFile  = fs.String("o", "", "trace output file (empty: stdout)")
	)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usageErrorf("trace: unexpected argument %q", fs.Arg(0))
	}
	if err := checkRun(*nodes, *steps); err != nil {
		return err
	}
	if *radioRng <= 0 || *radioRng > 1 {
		return usageErrorf("trace: -range %v outside (0, 1]", *radioRng)
	}
	if *cachettl < 1 {
		return usageErrorf("trace: -cachettl %d must be at least 1", *cachettl)
	}
	switch *scenario {
	case "none", "traffic", "churn", "mixed":
	default:
		return usageErrorf("trace: unknown scenario %q (want none, traffic, churn or mixed)", *scenario)
	}

	world, err := serveWorld("", *nodes, *seed, *radioRng, *cachettl, *scenario, out)
	if err != nil {
		return err
	}
	// Ring sized to the run so the export covers every recorded step.
	collector := selfstab.NewCollector(*steps)
	world.AttachProbe(collector)
	if err := world.Run(*steps); err != nil {
		return fmt.Errorf("trace: %w", err)
	}

	if *outFile == "" {
		return world.WriteTrace(out, 0)
	}
	f, err := os.Create(*outFile)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := world.WriteTrace(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(out, "wrote %d step records to %s\n", *steps, *outFile)
	return nil
}
