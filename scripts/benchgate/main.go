// Command benchgate is the bench-regression gate behind scripts/bench.sh:
// it compares a freshly generated BENCH_*.json against the committed
// baseline copy and fails (exit 1) when the median ns/op of any step-time
// benchmark regressed beyond the threshold factor.
//
//	go run ./scripts/benchgate -baseline old.json -fresh new.json [-threshold 1.2] [-match 'Step|HealRound']
//
// Benchmarks present on only one side are skipped (new benchmarks are
// not regressions; retired ones are not failures), so the gate tracks
// the trajectory without blocking additions. Each file's header carries
// the commit, GOMAXPROCS, Go version and CPU model it was recorded at,
// and the gate prints both headers. When the GOMAXPROCS differ the files
// are not comparable, and the gate says so and passes rather than
// compare a one-core median with a two-core one.
//
// With -pairs it instead summarizes a pairs file that scripts/pair.sh
// wrote: for each end-to-end metric BENCHMARK.json declares, both sides'
// median and quartiles, the change's wins out of n pairs, whether the
// difference is resolved, and whether the change stays within the bound.
// It prints and never fails on the numbers. It reads BENCHMARK.json from
// the working directory, so it runs from the repo root.
//
//	go run ./scripts/benchgate -pairs .bench_build/pairs/churn-seed1.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
)

type sample struct {
	Package string   `json:"package"`
	Name    string   `json:"name"`
	NsPerOp *float64 `json:"ns_per_op"`
}

// benchFile is a BENCH_*.json document as scripts/bench.sh writes it:
// the provenance header, then the samples. Files written before the Go
// version and CPU model were recorded leave those two empty.
type benchFile struct {
	Commit     string   `json:"commit"`
	GoMaxProcs int      `json:"gomaxprocs"`
	GoVersion  string   `json:"goversion"`
	CPUModel   string   `json:"cpumodel"`
	Samples    []sample `json:"samples"`
}

// medians returns the file's header and each benchmark's median ns/op.
func medians(path string) (benchFile, map[string]float64, error) {
	var doc benchFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, nil, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, nil, fmt.Errorf("%s: %w", path, err)
	}
	byKey := map[string][]float64{}
	for _, s := range doc.Samples {
		if s.NsPerOp == nil {
			continue
		}
		key := s.Package + " " + s.Name
		byKey[key] = append(byKey[key], *s.NsPerOp)
	}
	out := make(map[string]float64, len(byKey))
	for key, vals := range byKey {
		sort.Float64s(vals)
		out[key] = vals[len(vals)/2]
	}
	return doc, out, nil
}

func main() {
	var (
		baseline  = flag.String("baseline", "", "committed baseline BENCH_*.json")
		fresh     = flag.String("fresh", "", "freshly generated BENCH_*.json")
		threshold = flag.Float64("threshold", 1.2, "fail when fresh median exceeds baseline median by this factor")
		match     = flag.String("match", "Step|HealRound", "regexp a benchmark name must match to be gated")
		pairs     = flag.String("pairs", "", "summarize this pairs file (scripts/pair.sh) instead of gating")
	)
	flag.Parse()
	if *pairs != "" {
		if err := pairsMain(*pairs); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		return
	}
	if *baseline == "" || *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -fresh are required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	baseDoc, base, err := medians(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	curDoc, cur, err := medians(*fresh)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	for _, d := range []benchFile{baseDoc, curDoc} {
		fmt.Printf("benchgate: commit %s, GOMAXPROCS=%d, Go %q, CPU %q\n", d.Commit, d.GoMaxProcs, d.GoVersion, d.CPUModel)
	}
	if baseDoc.GoMaxProcs != curDoc.GoMaxProcs {
		fmt.Fprintf(os.Stderr, "benchgate: %s was recorded at GOMAXPROCS=%d, %s at %d: not comparable, skipping\n",
			*baseline, baseDoc.GoMaxProcs, *fresh, curDoc.GoMaxProcs)
		return
	}
	keys := make([]string, 0, len(cur))
	for key := range cur {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	failed := false
	for _, key := range keys {
		if !re.MatchString(key) {
			continue
		}
		b, ok := base[key]
		if !ok || b <= 0 {
			continue // new benchmark: nothing to regress against
		}
		c := cur[key]
		ratio := c / b
		status := "ok"
		if ratio > *threshold {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("benchgate: %-70s %12.0f -> %12.0f ns/op (%.2fx) %s\n", key, b, c, ratio, status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: step-time regression beyond %.2fx against %s\n", *threshold, *baseline)
		os.Exit(1)
	}
}
