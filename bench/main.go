// Command bench is the repo's end-to-end and per-layer benchmark: five
// workloads (heal, churn, dataplane, mixed, serve), each run in a fresh
// process with tracing off for the end-to-end metrics and once more traced
// for the per-layer ones. See README.md beside this file.
//
//	bash bench/run.sh --seed 1                 every workload, untraced then traced
//	bash bench/run.sh --selfcheck --seed 2     two untraced sets; fails if they disagree
//	bash bench/run.sh --workload churn --seed 3 --seconds 8 --trace 0
//
// The last form is one run; its last line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// declared is BENCHMARK.json, the declaration of what this harness emits.
type declared struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadDeclared reads BENCHMARK.json from the checkout root and returns it
// with the root's path. The harness runs from the root or from bench/.
func loadDeclared() (*declared, string, error) {
	for _, root := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var d declared
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &d, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// finish keeps the metrics of the run's mode: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one, in the declared
// units. A per-layer metric reads 0 on a workload that has no such layer.
// A measured metric that neither list declares is an error.
func (r *run) finish(d *declared) error {
	known := map[string]bool{}
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		known[m.Name] = true
	}
	for name := range r.metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	want := d.EndToEnd
	if r.traced {
		want = d.PerLayer
	}
	kept := map[string]metric{}
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && !r.traced:
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		case ok && got.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
		kept[m.Name] = metric{Value: got.Value, Unit: m.Unit}
	}
	r.metrics = kept
	return nil
}

// execute runs one workload in this process.
func (r *run) execute(d *declared) (result, error) {
	var err error
	if r.workload == "serve" {
		err = runServe(r)
	} else if w, ok := libWorkloads[r.workload]; ok {
		err = runLibrary(r, w)
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %s)", r.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return result{}, err
	}
	if err := r.finish(d); err != nil {
		return result{}, err
	}
	if r.traced {
		if err := r.tr.write(filepath.Join(r.outDir, r.workload+".trace.json"),
			fmt.Sprintf("%s-seed%d", r.workload, r.seed)); err != nil {
			return result{}, err
		}
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

// report is what the parent of a run reads back from its output.
type report struct {
	result
	digest     string
	unresolved string
}

// print writes the run's human-readable lines and, last, the result object.
func (r *run) print(res result) {
	fmt.Printf("# %s\n", provenance())
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t\n", r.workload, r.seed, r.seconds, r.traced)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", res.Attempted, res.Failed)
	fmt.Printf("sim_digest %016x\n", r.digest)
	if r.unresolved != "" {
		fmt.Printf("unresolved %s\n", r.unresolved)
	}
	b, _ := json.Marshal(res) // numbers and strings always marshal
	fmt.Printf("%s\n", b)
}

// measure runs one workload in a fresh process. A run whose load generator
// fell behind is no measurement of the system, so it is repeated, at most
// twice; if the last one is unresolved too it is reported as such.
func measure(workload string, seed int64, seconds float64, traced bool) (report, error) {
	for try := 1; ; try++ {
		rep, err := child(workload, seed, seconds, traced)
		if err != nil || rep.unresolved == "" || try == 3 {
			return rep, err
		}
		fmt.Printf("%-10s run %d unresolved (%s); repeating\n", workload, try, rep.unresolved)
	}
}

// child runs one workload in a fresh process of this same binary.
func child(workload string, seed int64, seconds float64, traced bool) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep.result); err != nil {
		return report{}, fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	for _, line := range lines {
		if v, ok := strings.CutPrefix(line, "sim_digest "); ok {
			rep.digest = v
		}
		if v, ok := strings.CutPrefix(line, "unresolved "); ok {
			rep.unresolved = v
		}
	}
	return rep, nil
}

// printMetrics prints one child's metrics in declaration order.
func printMetrics(workload string, want []declaredMetric, rep report) {
	for _, m := range want {
		fmt.Printf("%-10s %-32s %14.6g %s\n", workload, m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
}

// full runs every workload untraced and traced (or only the mode given)
// and checks that tracing left each simulation's digest unchanged.
func full(d *declared, seed int64, seconds float64, trace int) bool {
	ok := true
	for _, w := range workloadNames {
		digests := map[bool]string{}
		for _, traced := range []bool{false, true} {
			if trace >= 0 && traced != (trace == 1) {
				continue
			}
			rep, err := measure(w, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			printMetrics(w, want, rep)
			fmt.Printf("%-10s ops_attempted=%d ops_failed=%d sim_digest=%s traced=%t\n",
				w, rep.Attempted, rep.Failed, rep.digest, traced)
			if rep.unresolved != "" {
				fmt.Printf("%-10s UNRESOLVED: %s\n", w, rep.unresolved)
			}
			ok = ok && rep.Correct && rep.unresolved == ""
			digests[traced] = rep.digest
		}
		// The serve world's history depends on when each inject landed,
		// so its digest is compared only with its own restored twin.
		if w != "serve" && len(digests) == 2 && digests[false] != digests[true] {
			fmt.Printf("%-10s FAILED: sim_digest %s untraced, %s traced\n", w, digests[false], digests[true])
			ok = false
		}
	}
	return ok
}

// selfcheckRuns is how many runs of a workload each of the two sets holds.
const selfcheckRuns = 3

// selfcheck measures every workload in two untraced sets and fails if the
// sets' medians of any end-to-end metric differ by more than its bound. The
// sets' runs alternate: the reference host changes speed from one minute to
// the next, and two sets run one after the other would mostly measure that.
func selfcheck(d *declared, seed int64, seconds float64) bool {
	ok := true
	fmt.Printf("%-10s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "spread", "bound")
	for _, w := range workloadNames {
		var sets [2]map[string][]float64
		digests := map[string]bool{}
		for i := 0; i < 2*selfcheckRuns; i++ {
			rep, err := measure(w, seed, seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			if !rep.Correct || rep.unresolved != "" {
				fmt.Printf("%-10s run %d: correct=%t unresolved=%q\n", w, i+1, rep.Correct, rep.unresolved)
				ok = false
			}
			digests[rep.digest] = true
			if sets[i%2] == nil {
				sets[i%2] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		// The serve world's history depends on when each inject landed.
		if w != "serve" && len(digests) != 1 {
			fmt.Printf("%-10s FAILED: %d different sim_digests for one seed\n", w, len(digests))
			ok = false
		}
		for _, m := range d.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			spread := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if !(spread <= m.Bound) {
				verdict = "  FAILED"
				ok = false
			}
			fmt.Printf("%-10s %-14s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w, m.Name, a, b, 100*spread, 100*m.Bound, verdict)
		}
	}
	return ok
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result object last; empty runs all five, each in a fresh process")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "window budget; every fixed count scales with it (default: run_seconds in BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run (default: 0 for one workload, both for all)")
		check    = flag.Bool("selfcheck", false, "measure two untraced sets of alternating runs and fail if an end-to-end metric's medians differ by more than its bound")
	)
	flag.Parse()
	// Results at different GOMAXPROCS are never compared, so it is pinned
	// and stamped into every output.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	d, root, err := loadDeclared()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = d.RunSeconds
	}
	if *workload != "" {
		r := newRun(*workload, *seed, *seconds, *trace == 1)
		r.outDir = filepath.Join(root, "bench", "out")
		res, err := r.execute(d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		r.print(res)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("# %s\n# seed=%d seconds=%g\n", provenance(), *seed, *seconds)
	ok := false
	if *check {
		ok = selfcheck(d, *seed, *seconds)
	} else {
		ok = full(d, *seed, *seconds, *trace)
	}
	if !ok {
		fmt.Println("FAILED")
		os.Exit(1)
	}
	fmt.Println("ok")
}
