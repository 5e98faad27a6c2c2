package experiment

import (
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/energy"
	"selfstab/internal/metric"
	"selfstab/internal/rng"
	"selfstab/internal/stats"
)

// EnergyResult compares plain density against the energy-aware variant
// (Section 6 future work) on network lifetime and head-burden spread.
type EnergyResult struct {
	// Lifetime is the mean number of epochs until the first node depletes.
	PlainLifetime  float64
	EnergyLifetime float64
	// MaxBurden is the mean (over runs) of the maximum number of epochs
	// any single node spent as a cluster-head.
	PlainMaxBurden  float64
	EnergyMaxBurden float64
	Epochs          int
}

// Per-epoch battery cost, derived from the live subsystem's reference
// schedule (internal/energy's Default*Cost) at EpochSteps Δ(τ) steps per
// re-clustering epoch — the offline experiment and the live battery model
// drain from one source of truth and cannot drift. Heads pay the head
// idle rate (they aggregate and forward their members' traffic), members
// the member rate. A head with no members does no forwarding and pays
// memberCost — otherwise isolated nodes, which are trivially their own
// heads under every metric, would dominate the time-to-first-depletion
// and mask the rotation effect.
const (
	headCost   = energy.DefaultIdleHeadCost * energy.EpochSteps
	memberCost = energy.DefaultIdleMemberCost * energy.EpochSteps
)

// Energy runs the head-rotation experiment: a static network re-clusters
// every epoch while batteries drain; the energy-aware metric demotes
// depleted heads so the burden rotates, extending the time until the
// first node dies.
func Energy(opts Options) (*EnergyResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	master := rng.New(opts.Seed)
	const maxEpochs = 400
	var plainLife, energyLife, plainBurden, energyBurden stats.Welford
	for run := 0; run < opts.Runs; run++ {
		src := master.SplitN("energy", run)
		inst := deployRandom(opts.Intensity, opts.Ranges[0], src)
		for _, aware := range []bool{false, true} {
			life, burden, err := runEnergyTrace(inst, aware, maxEpochs)
			if err != nil {
				return nil, err
			}
			if aware {
				energyLife.Add(float64(life))
				energyBurden.Add(float64(burden))
			} else {
				plainLife.Add(float64(life))
				plainBurden.Add(float64(burden))
			}
		}
	}
	return &EnergyResult{
		PlainLifetime:   plainLife.Mean(),
		EnergyLifetime:  energyLife.Mean(),
		PlainMaxBurden:  plainBurden.Mean(),
		EnergyMaxBurden: energyBurden.Mean(),
		Epochs:          maxEpochs,
	}, nil
}

// runEnergyTrace returns (epochs until first depletion, max head epochs of
// any node).
func runEnergyTrace(inst instance, aware bool, maxEpochs int) (int, int, error) {
	n := inst.g.N()
	energy := make([]float64, n)
	for i := range energy {
		energy[i] = 1
	}
	headEpochs := make([]int, n)
	var prev []int
	baseValues := metric.Density{}.Values(inst.g)
	for epoch := 1; epoch <= maxEpochs; epoch++ {
		values := baseValues
		if aware {
			values = make([]float64, n)
			for u := range values {
				e := energy[u]
				if e < 0 {
					e = 0
				}
				values[u] = baseValues[u] * e
			}
		}
		a, err := cluster.Compute(inst.g, cluster.Config{
			Values:   values,
			TieIDs:   inst.ids,
			Order:    cluster.OrderSticky,
			PrevHead: prev,
		})
		if err != nil {
			return 0, 0, fmt.Errorf("energy epoch %d: %w", epoch, err)
		}
		prev = a.Head
		members := make(map[int]int, 8)
		for u := 0; u < n; u++ {
			if a.Head[u] != u {
				members[a.Head[u]]++
			}
		}
		depleted := false
		for u := 0; u < n; u++ {
			if a.IsHead(u) && members[u] > 0 {
				energy[u] -= headCost
				headEpochs[u]++
			} else {
				energy[u] -= memberCost
			}
			if energy[u] <= 0 {
				depleted = true
			}
		}
		if depleted {
			return epoch, maxIntSlice(headEpochs), nil
		}
	}
	return maxEpochs, maxIntSlice(headEpochs), nil
}

func maxIntSlice(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Render formats the energy experiment.
func (r *EnergyResult) Render() string {
	t := stats.NewTable("Extension: energy-aware head rotation (Section 6 future work)",
		"metric", "epochs to first depletion", "max head burden (epochs)")
	t.AddRow("density", fmt.Sprintf("%.1f", r.PlainLifetime), fmt.Sprintf("%.1f", r.PlainMaxBurden))
	t.AddRow("energy x density", fmt.Sprintf("%.1f", r.EnergyLifetime), fmt.Sprintf("%.1f", r.EnergyMaxBurden))
	return t.String()
}

// DaemonResult measures distributed stabilization steps under randomized
// daemons of decreasing activation probability.
type DaemonResult struct {
	Probs []float64
	Steps []float64
}

// Render formats the daemon ablation.
func (r *DaemonResult) Render() string {
	t := stats.NewTable("Ablation: randomized daemon activation probability",
		"activation prob", "mean stabilization steps")
	for i := range r.Probs {
		t.AddRow(fmt.Sprintf("%.2f", r.Probs[i]), fmt.Sprintf("%.1f", r.Steps[i]))
	}
	return t.String()
}
