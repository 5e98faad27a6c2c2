package main

import (
	"errors"
	"io"
	"strings"

	"selfstab/internal/attack"
)

// runAttack drives the adversarial workload plane from the command
// line: the same attack scenario runs against an undefended and a
// defended world built from one seed, and the report shows the deltas —
// legitimate delivery ratio under a botnet flood, headship-capture rate
// under byzantine density inflation, steps-to-restabilize after the
// plausibility eviction — that make the defenses measurable.
func runAttack(args []string, out io.Writer) error {
	cfg := attack.DefaultConfig()
	w := recipe{nodes: cfg.Nodes, seed: cfg.Seed, radio: cfg.Range, steps: cfg.AttackSteps}
	fs := w.flags("attack", "steps under attack")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "step parallelism (0: GOMAXPROCS workers)")
	fs.StringVar(&cfg.Scenario, "scenario", cfg.Scenario, "scenario: flood, byzantine, sybil")
	fs.IntVar(&cfg.Warmup, "warmup", cfg.Warmup, "steps of legitimate traffic before the attack")
	fs.IntVar(&cfg.Flows, "flows", cfg.Flows, "legitimate unicast flows")
	fs.Float64Var(&cfg.FlowRate, "rate", cfg.FlowRate, "per-flow injection rate (packets per step)")
	fs.IntVar(&cfg.Bots, "bots", cfg.Bots, "flood: compromised nodes")
	fs.Float64Var(&cfg.FloodRate, "floodrate", cfg.FloodRate, "flood: per-bot injection rate")
	fs.IntVar(&cfg.Byzantine, "byzantine", cfg.Byzantine, "byzantine: lying nodes")
	fs.Float64Var(&cfg.Scale, "scale", cfg.Scale, "byzantine: density inflation factor")
	fs.IntVar(&cfg.Sybils, "sybils", cfg.Sybils, "sybil: fake identities per burst")
	fs.Float64Var(&cfg.SybilSpread, "spread", cfg.SybilSpread, "sybil: ring radius around the target")
	fs.Float64Var(&cfg.HeadRate, "headrate", cfg.HeadRate, "defense: head token-bucket refill per step")
	fs.Float64Var(&cfg.HeadBurst, "headburst", cfg.HeadBurst, "defense: head token-bucket capacity")
	fs.IntVar(&cfg.SourceCap, "sourcecap", cfg.SourceCap, "defense: max injections per source per step")
	fs.Float64Var(&cfg.PlausFactor, "plausfactor", cfg.PlausFactor, "defense: density-plausibility detection margin")
	fs.IntVar(&cfg.EvictEvery, "evictevery", cfg.EvictEvery, "defense: steps between detection sweeps")
	if err := w.parse(fs, args, out); err != nil {
		return err
	}
	cfg.Nodes, cfg.Seed, cfg.Range, cfg.AttackSteps = w.nodes, w.seed, w.radio, w.steps
	cfg.Scenario = strings.ToLower(cfg.Scenario)
	report, err := attack.Run(cfg)
	if errors.As(err, new(attack.ConfigError)) {
		return usageErrorf("%v", err)
	}
	if err != nil {
		return err
	}
	report.Render(out)
	return nil
}
