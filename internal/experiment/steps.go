package experiment

import (
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/dag"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/runtime"
)

// StabilizationResult holds, per scenario, the mean number of Δ(τ) steps
// the full message-passing protocol needed to stabilize from a cold start
// and after total state corruption. It is the protocol-level counterpart
// of Table 5's stabilization claim: with the DAG the step count is a small
// constant; without it, on the adversarial grid, it grows with the network
// diameter.
type StabilizationResult struct {
	Scenarios    []string
	ColdSteps    []float64
	RecoverSteps []float64
}

// stabilizationIntensity is the stabilization runs' own λ, lighter than
// the paper's 1000 because each run steps the message-passing engine
// twice (assumed).
const stabilizationIntensity = 500

// Stabilization measures distributed stabilization times over a perfect
// medium (τ = 1, so steps are exactly the paper's Δ(τ) units).
func Stabilization(opts Options) (*StabilizationResult, error) {
	opts, err := opts.own(stabilizationIntensity)
	if err != nil {
		return nil, err
	}
	r := opts.Ranges[0]
	type scenario struct {
		name   string
		grid   bool
		useDag bool
	}
	scenarios := []scenario{
		{"grid + DAG", true, true},
		{"grid, no DAG", true, false},
		{"random + DAG", false, true},
		{"random, no DAG", false, false},
	}
	master := rng.New(opts.Seed)
	res := &StabilizationResult{}
	for _, sc := range scenarios {
		var cold, recover Welford
		for run := 0; run < opts.Runs; run++ {
			src := master.SplitN("stab-"+sc.name, run)
			var inst instance
			if sc.grid {
				inst = deployGrid(opts.Intensity, r, src)
			} else {
				inst = deployRandom(opts.Intensity, r, src)
			}
			proto := runtime.Protocol{Order: cluster.OrderBasic}
			if sc.useDag {
				proto.UseDag = true
				proto.Gamma = dag.PaperGamma(inst.g)
			}
			eng, err := runtime.New(inst.g, inst.ids, proto, radio.Perfect{}, src.Split("engine"))
			if err != nil {
				return nil, fmt.Errorf("stabilization %s: %w", sc.name, err)
			}
			maxSteps := 20*inst.g.N() + 100
			at, err := eng.RunUntilStable(maxSteps, 5)
			if err != nil {
				return nil, fmt.Errorf("stabilization %s cold: %w", sc.name, err)
			}
			cold.Add(float64(at))

			eng.Corrupt(1.0, runtime.CorruptAll, src.Split("faults"))
			at, err = eng.RunUntilStable(maxSteps, 5)
			if err != nil {
				return nil, fmt.Errorf("stabilization %s recover: %w", sc.name, err)
			}
			recover.Add(float64(at))
		}
		res.Scenarios = append(res.Scenarios, sc.name)
		res.ColdSteps = append(res.ColdSteps, cold.Mean())
		res.RecoverSteps = append(res.RecoverSteps, recover.Mean())
	}
	return res, nil
}

// Render formats the stabilization experiment.
func (r *StabilizationResult) Render() string {
	t := NewTable("Stabilization: steps to converge (perfect medium)",
		"scenario", "cold start", "after corruption")
	for i := range r.Scenarios {
		t.AddRow(r.Scenarios[i],
			fmt.Sprintf("%.1f", r.ColdSteps[i]),
			fmt.Sprintf("%.1f", r.RecoverSteps[i]))
	}
	return t.String()
}
