package main

import (
	"flag"
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
	def := attack.DefaultConfig()
	fs := flag.NewFlagSet("selfstab-sim attack", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", def.Nodes, "network size")
		seed     = fs.Int64("seed", def.Seed, "master random seed (shared by both worlds)")
		radioRng = fs.Float64("range", def.Range, "radio transmission range")
		workers  = fs.Int("workers", 0, "step parallelism (0: single-threaded)")
		scenario = fs.String("scenario", def.Scenario, "scenario: flood, byzantine, sybil")
		warmup   = fs.Int("warmup", def.Warmup, "steps of legitimate traffic before the attack")
		steps    = fs.Int("steps", def.AttackSteps, "steps under attack")
		flows    = fs.Int("flows", def.Flows, "legitimate unicast flows")
		rate     = fs.Float64("rate", def.FlowRate, "per-flow injection rate (packets per step)")
		bots     = fs.Int("bots", def.Bots, "flood: compromised nodes")
		flood    = fs.Float64("floodrate", def.FloodRate, "flood: per-bot injection rate")
		byz      = fs.Int("byzantine", def.Byzantine, "byzantine: lying nodes")
		scale    = fs.Float64("scale", def.Scale, "byzantine: density inflation factor")
		sybils   = fs.Int("sybils", def.Sybils, "sybil: fake identities per burst")
		spread   = fs.Float64("spread", def.SybilSpread, "sybil: ring radius around the target")
		headRate = fs.Float64("headrate", def.HeadRate, "defense: head token-bucket refill per step")
		burst    = fs.Float64("headburst", def.HeadBurst, "defense: head token-bucket capacity")
		cap_     = fs.Int("sourcecap", def.SourceCap, "defense: max injections per source per step")
		factor   = fs.Float64("plausfactor", def.PlausFactor, "defense: density-plausibility detection margin")
		every    = fs.Int("evictevery", def.EvictEvery, "defense: steps between detection sweeps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := attack.Config{
		Nodes: *nodes, Seed: *seed, Range: *radioRng, Workers: *workers,
		Scenario: strings.ToLower(*scenario), Warmup: *warmup, AttackSteps: *steps,
		Flows: *flows, FlowRate: *rate,
		Bots: *bots, FloodRate: *flood,
		Byzantine: *byz, Scale: *scale,
		Sybils: *sybils, SybilSpread: *spread,
		HeadRate: *headRate, HeadBurst: *burst, SourceCap: *cap_,
		PlausFactor: *factor, EvictEvery: *every,
	}
	report, err := attack.Run(cfg)
	if err != nil {
		return err
	}
	report.Render(out)
	return nil
}
