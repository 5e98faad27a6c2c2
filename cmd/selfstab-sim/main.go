// Command selfstab-sim regenerates the paper's evaluation tables and the
// ablation studies (internal/experiment), and drives the packet-level
// traffic and node-churn subsystems.
//
// Usage:
//
//	selfstab-sim -exp table3 -runs 1000 -lambda 1000
//	selfstab-sim -exp all -runs 30
//	selfstab-sim traffic -nodes 1000 -steps 500 -flows 100 -scenario static
//	selfstab-sim churn -nodes 1000 -steps 500 -scenario steady
//	selfstab-sim energy -nodes 1000 -steps 500 -scenario rotation
//	selfstab-sim scale -nodes 100000 -scenario quiescent
//	selfstab-sim serve -nodes 500 -sps 10 -preload churn -snapshot-dir /tmp/snaps
//	selfstab-sim trace -nodes 500 -steps 200 -scenario mixed -o trace.json
//	selfstab-sim attack -scenario flood -bots 12 -floodrate 4
//
// Experiments: table1, table2, table3, table4, table5, mobility,
// stabilization, metrics, orders, daemons, all.
//
// The traffic subcommand attaches a packet data plane (CBR / Poisson /
// hotspot workloads) to a stabilized network, runs a static, mobility or
// fault-recovery scenario, and reports delivery ratio, path stretch,
// latency percentiles and per-node forwarding load.
//
// The churn subcommand runs node-lifecycle churn — arrivals, departures,
// crashes, duty-cycling — under a steady, burst or blackout scenario and
// reports the convergence ledger (per-disruption steps-to-restabilize and
// affected radius) plus the traffic ledger when flows are attached.
//
// The energy subcommand attaches per-node batteries drained by role and
// traffic and runs a lifetime (time to first depletion, with depletions
// feeding the convergence ledger), rotation (plain vs energy-aware head
// election on the same seed) or sleep-savings (duty-cycled vs always-on
// drain) scenario.
//
// The scale subcommand builds a production-scale network (default 100k
// nodes at constant mean degree), cold-stabilizes it, and measures the
// per-step cost once quiescent (the frontier engine's O(1) claim) or
// under sustained churn with dead-slot auto-compaction bounding the
// slot count.
//
// The serve subcommand runs the simulation as a long-lived service: the
// world steps in scaled real time while an HTTP/JSON API (internal/serve)
// serves live cluster maps and ledgers, accepts scenario injection,
// streams step frames over SSE, exposes Prometheus-style metrics, and
// checkpoints to versioned snapshots that restore and replay
// bit-identically (-restore). -pprof mounts net/http/pprof under
// /debug/pprof/ for live profiling. SIGTERM drains gracefully.
//
// The trace subcommand records a step-phase profile of a run — per-step
// and per-phase wall-time spans, engine counters —
// and writes it as Chrome trace-event JSON (chrome://tracing,
// https://ui.perfetto.dev) to a file or stdout.
//
// The attack subcommand runs one adversarial scenario — a botnet flood
// aimed at the cluster-heads, byzantine density inflation capturing
// headship, or a sybil join burst — against an undefended and a defended
// world built from the same seed, and reports the attack-vs-defense
// deltas: legitimate delivery ratio, defense drop counters, headship
// capture rate, evictions and steps-to-restabilize.
//
// An unknown subcommand, experiment, scenario or workload name exits
// non-zero with a usage line on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"selfstab/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "selfstab-sim:", err)
		os.Exit(1)
	}
}

type renderer interface{ Render() string }

// usage is the one-line surface summary attached to every bad-name error,
// so a typo exits non-zero with actionable help on stderr.
const usage = "usage: selfstab-sim [-exp <experiment>] [flags] | selfstab-sim traffic [flags] | selfstab-sim churn [flags] | selfstab-sim energy [flags] | selfstab-sim scale [flags] | selfstab-sim serve [flags] | selfstab-sim trace [flags] | selfstab-sim attack [flags]"

func usageErrorf(format string, a ...any) error {
	return fmt.Errorf(format+"\n"+usage, a...)
}

// checkRun refuses, before any network is built, a world too small to
// cluster or a run with no step to report on.
func checkRun(nodes, steps int) error {
	if nodes < 2 {
		return usageErrorf("need at least 2 nodes, got %d", nodes)
	}
	if steps < 1 {
		return usageErrorf("-steps %d must be at least 1", steps)
	}
	return nil
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "traffic":
			return runTraffic(args[1:], out)
		case "churn":
			return runChurn(args[1:], out)
		case "energy":
			return runEnergy(args[1:], out)
		case "scale":
			return runScale(args[1:], out)
		case "serve":
			return runServe(args[1:], out)
		case "trace":
			return runTrace(args[1:], out)
		case "attack":
			return runAttack(args[1:], out)
		default:
			return usageErrorf("unknown subcommand %q (want traffic, churn, energy, scale, serve, trace or attack)", args[0])
		}
	}
	fs := flag.NewFlagSet("selfstab-sim", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "all", "experiment: table1, table2, table3, table4, table5, mobility, stabilization, metrics, orders, daemons, all")
		runs   = fs.Int("runs", 30, "independent runs per cell (paper: 1000)")
		seed   = fs.Int64("seed", 1, "master random seed")
		lambda = fs.Float64("lambda", 1000, "Poisson deployment intensity")
		ranges = fs.String("ranges", "0.05,0.08,0.1", "comma-separated transmission ranges")
		mins   = fs.Float64("minutes", 3, "mobility experiment duration in minutes (paper: 15)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rs, err := parseRanges(*ranges)
	if err != nil {
		return err
	}
	opts := experiment.Options{Runs: *runs, Seed: *seed, Intensity: *lambda, Ranges: rs}

	type entry struct {
		name string
		run  func() (renderer, error)
	}
	entries := []entry{
		{"table1", func() (renderer, error) { return experiment.Table1() }},
		{"table2", func() (renderer, error) {
			o := opts
			if o.Intensity > 500 && !flagPassed(fs, "lambda") {
				o.Intensity = 300 // runtime-level measurement; keep tractable
			}
			return experiment.Table2(o)
		}},
		{"table3", func() (renderer, error) { return experiment.Table3(opts) }},
		{"table4", func() (renderer, error) { return experiment.Table4(opts) }},
		{"table5", func() (renderer, error) { return experiment.Table5(opts) }},
		{"mobility", func() (renderer, error) {
			m := experiment.MobilityDefaults()
			m.Runs = *runs
			m.Seed = *seed
			m.Intensity = *lambda
			m.DurationSec = *mins * 60
			return experiment.Mobility(m)
		}},
		{"stabilization", func() (renderer, error) {
			o := opts
			// The runtime experiment is heavier; keep lambda tractable
			// unless the user insisted.
			if o.Intensity > 500 && !flagPassed(fs, "lambda") {
				o.Intensity = 500
			}
			return experiment.Stabilization(o)
		}},
		{"metrics", func() (renderer, error) { return experiment.AblationMetrics(opts) }},
		{"orders", func() (renderer, error) { return experiment.AblationOrders(opts) }},
		{"daemons", func() (renderer, error) {
			o := opts
			if o.Intensity > 400 && !flagPassed(fs, "lambda") {
				o.Intensity = 300
			}
			return experiment.AblationDaemons(o)
		}},
	}

	selected := strings.ToLower(*exp)
	found := false
	for _, e := range entries {
		if selected != "all" && selected != e.name {
			continue
		}
		found = true
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if !found {
		return usageErrorf("unknown experiment %q", *exp)
	}
	return nil
}

func parseRanges(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad range %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no ranges in %q", s)
	}
	return out, nil
}

func flagPassed(fs *flag.FlagSet, name string) bool {
	passed := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}
