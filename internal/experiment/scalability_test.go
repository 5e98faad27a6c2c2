package experiment

import (
	"strings"
	"testing"
)

func TestScalabilityShape(t *testing.T) {
	opts := Options{Runs: 2, Seed: 11, Intensity: 400, Ranges: []float64{0.12}}
	res, err := Scalability(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intensities) != 3 {
		t.Fatalf("shape: %+v", res)
	}
	for i := range res.Intensities {
		if res.HierState[i] >= res.FlatState[i] {
			t.Errorf("lambda=%v: hierarchical state %v not below flat %v",
				res.Intensities[i], res.HierState[i], res.FlatState[i])
		}
		if res.Stretch[i] < 1 || res.Stretch[i] > 3 {
			t.Errorf("lambda=%v: stretch %v implausible", res.Intensities[i], res.Stretch[i])
		}
	}
	// The hierarchical advantage must WIDEN with scale: the flat/hier state
	// ratio grows with lambda (the paper's scalability argument).
	first := res.FlatState[0] / res.HierState[0]
	last := res.FlatState[2] / res.HierState[2]
	if last <= first {
		t.Errorf("state advantage did not grow with scale: %v -> %v", first, last)
	}
	if !strings.Contains(res.Render(), "stretch") {
		t.Error("render missing column")
	}
}
