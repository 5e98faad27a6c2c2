package experiment

import (
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/runtime"
)

// daemonsIntensity is the daemon ablation's own λ, lighter than the
// paper's 1000 because each run steps the message-passing engine to
// stability at every activation probability (assumed).
const daemonsIntensity = 300

// AblationDaemons measures how the daemon's activation probability scales
// stabilization time: the paper's execution semantics only assume enabled
// guards are eventually executed, so the protocol must stabilize for any
// probability > 0 — just proportionally slower.
func AblationDaemons(opts Options) (*DaemonResult, error) {
	opts, err := opts.own(daemonsIntensity)
	if err != nil {
		return nil, err
	}
	probs := []float64{1.0, 0.5, 0.25}
	master := rng.New(opts.Seed)
	res := &DaemonResult{Probs: probs}
	for _, p := range probs {
		var acc Welford
		for run := 0; run < opts.Runs; run++ {
			src := master.SplitN(fmt.Sprintf("daemon-%.2f", p), run)
			inst := deployRandom(opts.Intensity, opts.Ranges[0], src)
			proto := runtime.Protocol{Order: cluster.OrderBasic, ActivationProb: p}
			eng, err := runtime.New(inst.g, inst.ids, proto, radio.Perfect{}, src.Split("engine"))
			if err != nil {
				return nil, err
			}
			at, err := eng.RunUntilStable(50*inst.g.N()+1000, 10)
			if err != nil {
				return nil, fmt.Errorf("daemon p=%.2f: %w", p, err)
			}
			acc.Add(float64(at))
		}
		res.Steps = append(res.Steps, acc.Mean())
	}
	return res, nil
}

// DaemonResult measures distributed stabilization steps under randomized
// daemons of decreasing activation probability.
type DaemonResult struct {
	Probs []float64
	Steps []float64
}

// Render formats the daemon ablation.
func (r *DaemonResult) Render() string {
	t := NewTable("Ablation: randomized daemon activation probability",
		"activation prob", "mean stabilization steps")
	for i := range r.Probs {
		t.AddRow(fmt.Sprintf("%.2f", r.Probs[i]), fmt.Sprintf("%.1f", r.Steps[i]))
	}
	return t.String()
}
