package experiment

import (
	"strings"
	"testing"
)

func TestAblationDaemonsMonotone(t *testing.T) {
	opts := Options{Runs: 2, Seed: 9, Intensity: 150, Ranges: []float64{0.15}}
	res, err := AblationDaemons(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probs) != 3 || len(res.Steps) != 3 {
		t.Fatalf("shape: %+v", res)
	}
	// Sparser daemons must not stabilize faster.
	if res.Steps[0] > res.Steps[1] || res.Steps[1] > res.Steps[2] {
		t.Errorf("steps not monotone in sparsity: %v", res.Steps)
	}
	if !strings.Contains(res.Render(), "activation") {
		t.Error("render missing header")
	}
}
