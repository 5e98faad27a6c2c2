package main

import (
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
	w := recipe{nodes: 500, seed: 1, radio: 0.1, ttl: 8, steps: 200}
	fs := w.flags("trace", "steps to run and record after cold stabilization")
	fs.IntVar(&w.ttl, "cachettl", w.ttl, "neighbor cache TTL in steps (needed for churn and energy)")
	var (
		scenario = fs.String("scenario", "mixed", "workload during the recording: none, traffic, churn or mixed")
		outFile  = fs.String("o", "", "trace output file (empty: stdout)")
	)
	if err := w.parse(fs, args, out); err != nil {
		return err
	}
	if err := oneOf("trace scenario", scenario, preloads...); err != nil {
		return err
	}

	world, err := serveWorld("", &w, *scenario, out)
	if err != nil {
		return err
	}
	// Ring sized to the run so the export covers every recorded step.
	collector := selfstab.NewCollector(w.steps)
	world.AttachProbe(collector)
	if err := world.Run(w.steps); err != nil {
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
	fmt.Fprintf(out, "wrote %d step records to %s\n", w.steps, *outFile)
	return nil
}
