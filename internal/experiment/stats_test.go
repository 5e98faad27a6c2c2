package experiment

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(5)
	if w.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Bound magnitude so the naive sum is stable.
			xs = append(xs, math.Mod(x, 1000))
		}
		if len(xs) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		return math.Abs(w.Mean()-sum/float64(len(xs))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var whole, left, right Welford
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(right)
	if left.n != whole.n {
		t.Fatalf("merged N = %d, want %d", left.n, whole.n)
	}
	if math.Abs(left.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("merged Mean = %v, want %v", left.Mean(), whole.Mean())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty changes nothing
	if a != before {
		t.Error("merge of empty accumulator changed state")
	}
	b.Merge(a) // merging into empty copies
	if b.Mean() != 2 || b.n != 2 {
		t.Errorf("merge into empty: mean=%v n=%d", b.Mean(), b.n)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X: demo", "R", "clusters", "ecc")
	tb.AddRow("0.05", "61.00", "2.60")
	tb.AddRow("0.08", "19.20", "3.10")
	out := tb.String()
	if !strings.Contains(out, "Table X: demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "61.00") {
		t.Errorf("missing cell:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// All non-title lines share the same width (alignment check).
	w := len(lines[1])
	for _, l := range lines[2:] {
		if len(l) != w {
			t.Errorf("ragged table rows:\n%s", out)
		}
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1")
	out := tb.String()
	if !strings.Contains(out, "1") {
		t.Errorf("row missing: %s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "col")
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}
