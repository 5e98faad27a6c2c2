package main

import (
	"fmt"
	"strings"
	"testing"
)

// synthetic builds a pairs file: pair k's parent reads parent[k] and its
// change reads change[k] on every metric.
func synthetic(parent, change []float64) string {
	var b strings.Builder
	for k := range parent {
		for _, side := range []struct {
			name string
			v    float64
		}{{"parent", parent[k]}, {"change", change[k]}} {
			fmt.Fprintf(&b, `{"pair":%d,"side":%q,"digest":"d899","result":{"failed":0,"metrics":{"op_p50_ms":{"value":%g},"steps_per_s":{"value":%g}}}}`+"\n",
				k+1, side.name, side.v, side.v)
		}
	}
	return b.String()
}

var declared = []declaredMetric{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

func summaries(t *testing.T, parent, change []float64) []summary {
	t.Helper()
	runs, err := readPairs(strings.NewReader(synthetic(parent, change)))
	if err != nil {
		t.Fatal(err)
	}
	sums, err := summarize(runs, declared)
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{5}, quartiles{5, 5, 5, 5, 5}},
		{[]float64{4, 1, 3, 2}, quartiles{1, 1.75, 2.5, 3.25, 4}},
		{[]float64{9, 1, 5, 3, 7}, quartiles{1, 3, 5, 7, 9}},
	} {
		if got := quartilesOf(tc.xs); got != tc.want {
			t.Errorf("quartilesOf(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

// TestPairsVerdict: the verdict needs ten pairs, nine tenths of them
// won and a median gap wider than the parent's quartile distance, and
// reads the metric's direction.
func TestPairsVerdict(t *testing.T) {
	parent := []float64{1.40, 1.42, 1.44, 1.41, 1.43, 1.45, 1.39, 1.42, 1.40, 1.44}
	faster := make([]float64, len(parent))
	for k, v := range parent {
		faster[k] = v * 0.93
	}
	// Nine wins of ten, the tenth a tie: still better.
	nineAndTie := append([]float64(nil), faster...)
	nineAndTie[3] = parent[3]
	// Nine wins of ten, the tenth a loss: still better.
	nineAndLoss := append([]float64(nil), faster...)
	nineAndLoss[3] = parent[3] * 1.01
	// Eight wins of ten: not enough pairs.
	eight := append([]float64(nil), faster...)
	eight[0], eight[1] = parent[0]*1.01, parent[1]*1.01
	// Every pair a hair faster, but by less than the parent's spread.
	hair := make([]float64, len(parent))
	for k, v := range parent {
		hair[k] = v - 0.001
	}
	for _, tc := range []struct {
		name         string
		change       []float64 // its length is the number of pairs
		wins, losses int
		lower        string // op_p50_ms: lower is better
		higher       string // steps_per_s: higher is better
	}{
		{"faster", faster, 10, 0, "better", "worse"},
		{"nine and a tie", nineAndTie, 9, 0, "better", "worse"},
		{"nine and a loss", nineAndLoss, 9, 1, "better", "worse"},
		{"eight", eight, 8, 2, "not resolved", "not resolved"},
		{"within spread", hair, 10, 0, "not resolved", "not resolved"},
		{"identical", parent, 0, 0, "not resolved", "not resolved"},
		// Six of six, the medians as far apart as in "faster": too few.
		{"six pairs", faster[:6], 6, 0, "not resolved", "not resolved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.change)
			sums := summaries(t, parent[:n], tc.change)
			lo, hi := sums[0], sums[1]
			if lo.n != n || lo.wins != tc.wins || lo.losses != tc.losses {
				t.Fatalf("op_p50_ms: %d wins, %d losses of %d, want %d, %d of %d", lo.wins, lo.losses, lo.n, tc.wins, tc.losses, n)
			}
			if apart := lo.parent.med-lo.change.med > lo.parent.q3-lo.parent.q1; n < minPairs && !apart {
				t.Fatalf("op_p50_ms: the medians of the %d-pair row are not apart", n)
			}
			if hi.wins != tc.losses || hi.losses != tc.wins {
				t.Fatalf("steps_per_s: %d wins, %d losses, want the mirror of op_p50_ms", hi.wins, hi.losses)
			}
			if got := lo.verdict(); got != tc.lower {
				t.Errorf("op_p50_ms verdict %q, want %q", got, tc.lower)
			}
			if got := hi.verdict(); got != tc.higher {
				t.Errorf("steps_per_s verdict %q, want %q", got, tc.higher)
			}
		})
	}
}

// TestSignP: the exact two-sided sign test over the pairs that did not
// tie, in either direction, and 1 when every pair tied.
func TestSignP(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		faster, slower, ties int
		want                 float64
	}{
		{"10 of 10", 10, 0, 0, 2.0 / 1024},
		{"9 of 10", 9, 1, 0, 22.0 / 1024},
		{"8 of 10", 8, 2, 0, 112.0 / 1024},
		{"8 of 10 lost", 2, 8, 0, 112.0 / 1024},
		{"10 of 10 and two ties", 10, 0, 2, 2.0 / 1024},
		{"an even split", 5, 5, 0, 1},
		{"every pair tied", 0, 0, 10, 1},
	} {
		var parent, change []float64
		for k := 0; k < tc.faster+tc.slower+tc.ties; k++ {
			v := 10.0
			switch {
			case k < tc.faster:
				v = 9
			case k < tc.faster+tc.slower:
				v = 11
			}
			parent, change = append(parent, 10), append(change, v)
		}
		s := summaries(t, parent, change)[0]
		if got := s.signP(); got != tc.want {
			t.Errorf("%s: sign p %v, want %v (%d wins, %d losses of %d)", tc.name, got, tc.want, s.wins, s.losses, s.n)
		}
	}
}

// TestPairsBound: a median worse by more than the declared bound is
// flagged in the metric's own direction, a smaller loss is not, and a
// quartile distance on either side wider than the bound leaves the bound
// unresolved unless every change run read better than every parent run.
func TestPairsBound(t *testing.T) {
	flat := func(v float64) []float64 { return []float64{v, v, v, v} }
	wide := []float64{6, 8, 12, 14} // median 10, quartile distance 5
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lower, higher  string // op_p50_ms, steps_per_s
	}{
		{"20% up", flat(10), flat(12), "within bound", "within bound"},
		{"30% up", flat(10), flat(13), "BEYOND BOUND", "within bound"},
		{"30% down", flat(10), flat(7), "within bound", "BEYOND BOUND"},
		{"20% down", flat(10), flat(8), "within bound", "within bound"},
		{"parent wide", wide, flat(10), "bound unresolved", "bound unresolved"},
		{"parent wide, all below", wide, flat(5), "within bound", "bound unresolved"},
		{"parent wide, all above", wide, flat(15), "bound unresolved", "within bound"},
		{"change wide", flat(10), wide, "bound unresolved", "bound unresolved"},
		{"change wide, all below", flat(16), wide, "within bound", "bound unresolved"},
	} {
		sums := summaries(t, tc.parent, tc.change)
		if got := sums[0].bound(); got != tc.lower {
			t.Errorf("%s: op_p50_ms %q, want %q", tc.name, got, tc.lower)
		}
		if got := sums[1].bound(); got != tc.higher {
			t.Errorf("%s: steps_per_s %q, want %q", tc.name, got, tc.higher)
		}
	}
}

// TestPairsMalformed: a pair missing a side, a side run twice, an unknown
// side and a missing metric are errors, not silent skips.
func TestPairsMalformed(t *testing.T) {
	good := synthetic([]float64{1, 2}, []float64{1, 2})
	lines := strings.SplitAfter(good, "\n")
	for name, text := range map[string]string{
		"missing side": lines[0] + lines[1] + lines[2],
		"side twice":   lines[0] + lines[1] + lines[2] + lines[2],
		"unknown side": strings.Replace(good, `"change"`, `"child"`, 1),
		"no metric":    strings.Replace(good, `"op_p50_ms"`, `"op_p99_ms"`, 1),
		"no pairs":     "",
	} {
		runs, err := readPairs(strings.NewReader(text))
		if err == nil {
			_, err = summarize(runs, declared)
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
