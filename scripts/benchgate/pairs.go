package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// pairRun is one line of a pairs file as scripts/pair.sh writes it: one
// untraced bench/run.sh run of one side of one pair.
type pairRun struct {
	Pair   int    `json:"pair"`
	Side   string `json:"side"` // "parent" or "change"
	Digest string `json:"digest"`
	Result struct {
		Failed  int `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// declaredMetric is an end-to-end metric as BENCHMARK.json declares it.
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// quartiles are a sample's first quartile, median and third quartile,
// each linearly interpolated between the two nearest order statistics,
// and its least and greatest values.
type quartiles struct{ lo, q1, med, q3, hi float64 }

func quartilesOf(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := float64(p * float64(len(s)-1))
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + float64((h-float64(lo))*(s[lo+1]-s[lo]))
	}
	return quartiles{s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1]}
}

// summary is one metric's paired comparison.
type summary struct {
	metric         declaredMetric
	parent, change quartiles
	wins, losses   int // pairs the change read better, worse (ties neither)
	n              int
}

// delta is the change's median relative to the parent's.
func (s summary) delta() float64 { return s.change.med/s.parent.med - 1 }

// minPairs is the fewest pairs a verdict is drawn from: on a shared host
// the two sides of a short set drift apart by more than either side's
// quartile distance, so six of six pairs can read "better" on unchanged
// code.
const minPairs = 10

// verdict applies the claim rule to the pairs: the change is "better"
// (or "worse") when there are at least minPairs pairs, it read so on at
// least nine tenths of them and the medians differ by more than the
// parent's own quartile distance; anything else is "not resolved".
func (s summary) verdict() string {
	iqr := s.parent.q3 - s.parent.q1
	apart := math.Abs(s.change.med-s.parent.med) > iqr
	switch {
	case s.n < minPairs:
	case apart && 10*s.wins >= 9*s.n:
		return "better"
	case apart && 10*s.losses >= 9*s.n:
		return "worse"
	}
	return "not resolved"
}

// signP is the exact two-sided sign-test p over the pairs that did not
// tie: the chance that a fair coin splits them at least as unevenly as
// wins against losses. With no such pair it is 1.
func (s summary) signP() float64 {
	n, k := s.wins+s.losses, max(s.wins, s.losses)
	tail, c := 0.0, 1.0 // c is C(n, i), from i = n down
	for i := n; i >= k; i-- {
		tail += c
		c = c * float64(i) / float64(n-i+1)
	}
	return min(1, 2*tail/math.Pow(2, float64(n)))
}

// bound applies the no-regression rule to the pairs. The change is
// "BEYOND BOUND" when its median is worse than the parent's by more than
// the metric's declared bound. When either side's quartile distance is
// wider than the bound times the parent's median, the medians cannot
// show this, and the bound is "unresolved", unless every change run read
// better than every parent run. Anything else is "within bound".
func (s summary) bound() string {
	worse := s.delta()
	allBetter := s.change.hi < s.parent.lo
	if s.metric.Better == "higher" {
		worse = -worse
		allBetter = s.change.lo > s.parent.hi
	}
	wide := s.metric.Bound * s.parent.med
	switch {
	case allBetter:
		return "within bound"
	case s.parent.q3-s.parent.q1 > wide || s.change.q3-s.change.q1 > wide:
		return "bound unresolved"
	case worse > s.metric.Bound:
		return "BEYOND BOUND"
	}
	return "within bound"
}

// readPairs parses a pairs file, one JSON run after another.
func readPairs(r io.Reader) ([]pairRun, error) {
	var runs []pairRun
	dec := json.NewDecoder(r)
	for dec.More() {
		var p pairRun
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("run %d: %w", len(runs)+1, err)
		}
		if p.Side != "parent" && p.Side != "change" {
			return nil, fmt.Errorf("run %d: side %q", len(runs)+1, p.Side)
		}
		runs = append(runs, p)
	}
	return runs, nil
}

// summarize pairs the runs by pair number and compares each declared
// metric. Every pair must hold exactly one run of each side.
func summarize(runs []pairRun, metrics []declaredMetric) ([]summary, error) {
	type pair struct{ parent, change *pairRun }
	byPair := map[int]*pair{}
	for i := range runs {
		r := &runs[i]
		p := byPair[r.Pair]
		if p == nil {
			p = &pair{}
			byPair[r.Pair] = p
		}
		side := &p.parent
		if r.Side == "change" {
			side = &p.change
		}
		if *side != nil {
			return nil, fmt.Errorf("pair %d has two %s runs", r.Pair, r.Side)
		}
		*side = r
	}
	keys := make([]int, 0, len(byPair))
	for k, p := range byPair {
		if p.parent == nil || p.change == nil {
			return nil, fmt.Errorf("pair %d lacks a side", k)
		}
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if len(keys) == 0 {
		return nil, fmt.Errorf("no pairs")
	}
	out := make([]summary, 0, len(metrics))
	for _, m := range metrics {
		s := summary{metric: m, n: len(keys)}
		var par, chg []float64
		for _, k := range keys {
			p := byPair[k]
			a, okA := p.parent.Result.Metrics[m.Name]
			b, okB := p.change.Result.Metrics[m.Name]
			if !okA || !okB {
				return nil, fmt.Errorf("pair %d: metric %s missing", k, m.Name)
			}
			par, chg = append(par, a.Value), append(chg, b.Value)
			better := b.Value < a.Value
			if m.Better == "higher" {
				better = b.Value > a.Value
			}
			switch {
			case a.Value == b.Value:
			case better:
				s.wins++
			default:
				s.losses++
			}
		}
		s.parent, s.change = quartilesOf(par), quartilesOf(chg)
		out = append(out, s)
	}
	return out, nil
}

// printPairs writes the comparison of a pairs file: one line on the runs
// (digests, failed operations), then one verdict line per metric.
func printPairs(w io.Writer, runs []pairRun, sums []summary) {
	digests := map[string]bool{}
	failed := map[string]int{}
	for _, r := range runs {
		digests[r.Digest] = true
		failed[r.Side] += r.Result.Failed
	}
	digest := "sim_digest differs between runs"
	if len(digests) == 1 {
		digest = "sim_digest " + runs[0].Digest + " on every run"
	}
	fmt.Fprintf(w, "pairs: %d; %s; failed ops parent %d, change %d\n", sums[0].n, digest, failed["parent"], failed["change"])
	for _, s := range sums {
		fmt.Fprintf(w, "%-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g] %s  %+.1f%%  wins %d/%d (sign p %.3g)  %s, %s\n",
			s.metric.Name, s.parent.med, s.parent.q1, s.parent.q3, s.change.med, s.change.q1, s.change.q3,
			s.metric.Unit, 100*s.delta(), s.wins, s.n, s.signP(), s.verdict(), s.bound())
	}
}

// pairsMain is benchgate -pairs: it reads the end-to-end metrics from
// BENCHMARK.json in the working directory and prints the comparison of
// the pairs file.
func pairsMain(pairsPath string) error {
	const declaredPath = "BENCHMARK.json"
	raw, err := os.ReadFile(declaredPath)
	if err != nil {
		return err
	}
	var d struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return fmt.Errorf("%s: %w", declaredPath, err)
	}
	f, err := os.Open(pairsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	runs, err := readPairs(f)
	if err != nil {
		return fmt.Errorf("%s: %w", pairsPath, err)
	}
	sums, err := summarize(runs, d.EndToEnd)
	if err != nil {
		return fmt.Errorf("%s: %w", pairsPath, err)
	}
	printPairs(os.Stdout, runs, sums)
	return nil
}
