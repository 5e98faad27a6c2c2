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
// The subcommands share one world recipe: -nodes, -seed, -range (scale
// derives its range from -degree instead), -steps (all but serve) and,
// in serve and trace, -cachettl. Each keeps its own defaults, and each
// refuses fewer than 2 nodes, a range outside (0, 1], a cache TTL below 1
// and fewer than 1 step before it builds anything. Scenario, workload,
// preload and experiment names match in any case and are reported in
// lower case.
//
// Every bad invocation — an unknown subcommand, experiment, scenario or
// workload name, a bad flag value, an out-of-range option or a stray
// argument — is a usage error: selfstab-sim exits 1 with the message and
// the usage line on stderr and writes nothing to stdout. -h prints the
// usage line and the subcommand's flags with their defaults to stdout
// and exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"selfstab"
	"selfstab/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "selfstab-sim:", err)
		os.Exit(1)
	}
}

type renderer interface{ Render() string }

// subcommands is the one table run dispatches on and the usage line and
// the unknown-subcommand error list. init fills it because its entries
// reach usageErrorf, which reads it.
var subcommands map[string]func(args []string, out io.Writer) error

func init() {
	subcommands = map[string]func([]string, io.Writer) error{
		"traffic": runTraffic, "churn": runChurn, "energy": runEnergy, "scale": runScale,
		"serve": runServe, "trace": runTrace, "attack": runAttack,
	}
}

// usage is the one-line surface summary every usage error carries and -h
// prints.
func usage() string {
	line := "usage: selfstab-sim [-exp <experiment>] [flags]"
	for _, name := range slices.Sorted(maps.Keys(subcommands)) {
		line += " | selfstab-sim " + name + " [flags]"
	}
	return line
}

func usageErrorf(format string, a ...any) error {
	return fmt.Errorf(format+"\n"+usage(), a...)
}

// oneOf lower-cases *value and refuses it with a usage error unless it is
// one of names.
func oneOf(what string, value *string, names ...string) error {
	if v := strings.ToLower(*value); slices.Contains(names, v) {
		*value = v
		return nil
	}
	n := len(names) - 1
	return usageErrorf("unknown %s %q (want %s or %s)", what, *value, strings.Join(names[:n], ", "), names[n])
}

// parse parses args into fs. The flag package prints nothing: a bad flag
// value or a stray argument is a usage error, and -h prints the usage
// line and fs's flags to out and returns flag.ErrHelp, which run turns
// into success.
func parse(fs *flag.FlagSet, args []string, out io.Writer) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprintln(out, usage())
		fs.SetOutput(out)
		fs.PrintDefaults()
		return err
	case err != nil:
		return usageErrorf("%v", err)
	case fs.NArg() > 0:
		return usageErrorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// recipe is the random world a subcommand builds: its size, seed, radio
// range and neighbor cache TTL, and how many steps the subcommand runs
// it for.
type recipe struct {
	nodes int
	seed  int64
	radio float64
	ttl   int
	steps int
}

// flags returns the flag set of subcommand name with -nodes and -seed
// registered at w's values, -range too unless w has no range (scale sets
// its own from -degree), and -steps too unless stepsUsage is empty.
func (w *recipe) flags(name, stepsUsage string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.IntVar(&w.nodes, "nodes", w.nodes, "network size")
	fs.Int64Var(&w.seed, "seed", w.seed, "master random seed")
	if w.radio != 0 {
		fs.Float64Var(&w.radio, "range", w.radio, "radio transmission range")
	}
	if stepsUsage != "" {
		fs.IntVar(&w.steps, "steps", w.steps, stepsUsage)
	}
	return fs
}

// parse parses args into fs and refuses, before any network is built, a
// world too small to cluster, a range outside (0, 1], a cache TTL below 1
// step and a run with no step to report on. Each check but the first
// applies where fs has the flag.
func (w *recipe) parse(fs *flag.FlagSet, args []string, out io.Writer) error {
	if err := parse(fs, args, out); err != nil {
		return err
	}
	switch {
	case w.nodes < 2:
		return usageErrorf("need at least 2 nodes, got %d", w.nodes)
	case (w.radio <= 0 || w.radio > 1) && fs.Lookup("range") != nil:
		return usageErrorf("-range %v outside (0, 1]", w.radio)
	case w.ttl < 1 && fs.Lookup("cachettl") != nil:
		return usageErrorf("-cachettl %d must be at least 1", w.ttl)
	case w.steps < 1 && fs.Lookup("steps") != nil:
		return usageErrorf("-steps %d must be at least 1", w.steps)
	}
	return nil
}

// build builds w's network with any further options and cold-stabilizes
// it.
func (w *recipe) build(opts ...selfstab.Option) (*selfstab.Network, error) {
	net, err := selfstab.NewRandomNetwork(w.nodes, append([]selfstab.Option{
		selfstab.WithSeed(w.seed), selfstab.WithRange(w.radio), selfstab.WithCacheTTL(w.ttl)}, opts...)...)
	if err != nil {
		return nil, err
	}
	if _, err := net.Stabilize(5000); err != nil {
		return nil, fmt.Errorf("cold stabilization: %w", err)
	}
	return net, nil
}

func run(args []string, out io.Writer) error {
	cmd := runExperiments
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name := args[0]
		if err := oneOf("subcommand", &name, slices.Sorted(maps.Keys(subcommands))...); err != nil {
			return err
		}
		cmd, args = subcommands[name], args[1:]
	}
	if err := cmd(args, out); !errors.Is(err, flag.ErrHelp) {
		return err
	}
	return nil
}

// runExperiments regenerates the paper's tables and the ablations.
func runExperiments(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("selfstab-sim", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1, table2, table3, table4, table5, mobility, stabilization, metrics, orders, daemons, all")
	opts := experimentFlags(fs)
	if err := parse(fs, args, out); err != nil {
		return err
	}
	type entry struct {
		name string
		run  func() (renderer, error)
	}
	entries := []entry{
		{"table1", func() (renderer, error) { return experiment.Table1() }},
		{"table2", func() (renderer, error) { return experiment.Table2(*opts) }},
		{"table3", func() (renderer, error) { return experiment.Table3(*opts) }},
		{"table4", func() (renderer, error) { return experiment.Table4(*opts) }},
		{"table5", func() (renderer, error) { return experiment.Table5(*opts) }},
		{"mobility", func() (renderer, error) { return experiment.Mobility(*opts) }},
		{"stabilization", func() (renderer, error) { return experiment.Stabilization(*opts) }},
		{"metrics", func() (renderer, error) { return experiment.AblationMetrics(*opts) }},
		{"orders", func() (renderer, error) { return experiment.AblationOrders(*opts) }},
		{"daemons", func() (renderer, error) { return experiment.AblationDaemons(*opts) }},
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.name)
	}
	if err := oneOf("experiment", exp, append(names, "all")...); err != nil {
		return err
	}
	// Refuse the options before the first table is printed.
	if err := opts.Validate(); err != nil {
		return usageErrorf("%v", err)
	}
	for _, e := range entries {
		if *exp != "all" && *exp != e.name {
			continue
		}
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(out, res.Render())
	}
	return nil
}

// experimentFlags registers one flag per field of experiment.Options on
// fs, each defaulting to experiment.Defaults(), and returns the options
// they set.
func experimentFlags(fs *flag.FlagSet) *experiment.Options {
	o := experiment.Defaults()
	fs.IntVar(&o.Runs, "runs", o.Runs, "independent runs per cell (paper: 1000)")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "master random seed")
	fs.Float64Var(&o.Intensity, "lambda", o.Intensity, "Poisson deployment intensity (0: each experiment's own)")
	fs.Var((*rangeList)(&o.Ranges), "ranges", "comma-separated transmission `ranges`")
	fs.Float64Var(&o.Minutes, "minutes", o.Minutes, "mobility experiment duration in minutes (paper: 15)")
	return &o
}

// rangeList is the -ranges flag: a comma-separated list of ranges.
type rangeList []float64

func (r *rangeList) String() string {
	parts := make([]string, len(*r))
	for i, v := range *r {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func (r *rangeList) Set(s string) error {
	rs, err := parseRanges(s)
	*r = rs
	return err
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

// flagPassed reports whether the parsed arguments set fs's flag name.
func flagPassed(fs *flag.FlagSet, name string) bool {
	passed := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}
