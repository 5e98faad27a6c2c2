package main

import (
	"regexp"
	"testing"
)

// smokeRun executes one workload at about 1/50 scale. finish has already
// checked the emitted names against BENCHMARK.json when it returns.
func smokeRun(t *testing.T, d *declared, workload string, traced bool) (*run, result) {
	t.Helper()
	seconds := float64(refSeconds)
	if workload == "serve" {
		seconds = 1 // its window runs in real time
	}
	r := newRun(workload, 7, seconds, traced)
	r.scale = 0.02
	r.outDir = t.TempDir()
	res, err := r.execute(d)
	if err != nil {
		t.Fatalf("%s traced=%t: %v", workload, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", workload, traced, res.Correct, res.Attempted, res.Failed)
	}
	return r, res
}

// TestSmoke runs all five workloads small, untraced and traced, and checks
// that each mode emits exactly the names BENCHMARK.json declares for it and
// that the simulated counts repeat exactly for one seed.
func TestSmoke(t *testing.T) {
	d, _, err := loadDeclared()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloadNames[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is declared twice", m.Name)
		}
		seen[m.Name] = true
	}

	counts := []string{"churn.ops", "traffic.pkt_hops", "heal.steps_to_stabilize"}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			untraced, res := smokeRun(t, d, w, false)
			if len(res.Metrics) != len(d.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, BENCHMARK.json declares %d end to end", len(res.Metrics), len(d.EndToEnd))
			}
			for _, m := range d.EndToEnd {
				if res.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			first, res1 := smokeRun(t, d, w, true)
			if len(res1.Metrics) != len(d.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json declares %d per layer", len(res1.Metrics), len(d.PerLayer))
			}
			if w == "serve" {
				return // when an inject lands depends on the clock, so its history does not repeat
			}
			second, res2 := smokeRun(t, d, w, true)
			if untraced.digest != first.digest || first.digest != second.digest {
				t.Errorf("sim_digest %016x untraced, %016x traced, %016x traced again", untraced.digest, first.digest, second.digest)
			}
			for _, c := range counts {
				if a, b := res1.Metrics[c].Value, res2.Metrics[c].Value; a != b {
					t.Errorf("%s = %v then %v for one seed", c, a, b)
				}
			}
		})
	}
}
