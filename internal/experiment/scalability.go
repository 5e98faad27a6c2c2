package experiment

import (
	"fmt"
	"math"

	"selfstab/internal/cluster"
	"selfstab/internal/metric"
	"selfstab/internal/rng"
	"selfstab/internal/routing"
	"selfstab/internal/stats"
)

// ScalabilityResult quantifies the paper's motivation (Sections 1-2): flat
// proactive routing keeps O(n) state per node (an entry for each of the
// n−1 other nodes), while routing over the density clusters keeps
// per-cluster state, at a bounded path-stretch cost against shortest
// paths.
type ScalabilityResult struct {
	Intensities []float64
	FlatState   []float64 // mean routing entries per node, flat
	HierState   []float64 // mean routing entries per node, hierarchical
	Stretch     []float64 // mean hop stretch of hierarchical routes
}

// Scalability grows the network while holding the local density constant
// (λR² fixed — the paper's "network gets larger", not "denser"): cluster
// sizes then stay constant, cluster count grows with n, so flat state per
// node grows linearly while hierarchical state stays near-flat. Sweeping
// intensity at fixed range would instead grow cluster sizes (the paper
// notes head count is intensity-invariant), which is not the scalability
// question.
func Scalability(opts Options) (*ScalabilityResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	intensities := []float64{opts.Intensity / 4, opts.Intensity / 2, opts.Intensity}
	baseR := opts.Ranges[0]
	master := rng.New(opts.Seed)
	res := &ScalabilityResult{Intensities: intensities}
	for _, lambda := range intensities {
		// Constant λr²: smaller networks get proportionally longer reach.
		r := baseR * math.Sqrt(opts.Intensity/lambda)
		if r > 1 {
			r = 1
		}
		var flat, hier, stretch stats.Welford
		for run := 0; run < opts.Runs; run++ {
			src := master.SplitN(fmt.Sprintf("scal-%v", lambda), run)
			inst := deployRandom(lambda, r, src)
			a, err := cluster.Compute(inst.g, cluster.Config{
				Values: metric.Density{}.Values(inst.g),
				TieIDs: inst.ids,
				Order:  cluster.OrderBasic,
			})
			if err != nil {
				return nil, err
			}
			ht, err := routing.BuildHierarchical(inst.g, a)
			if err != nil {
				return nil, err
			}
			// A proactive flat table holds an entry for every other node,
			// reachable or not.
			flat.Add(float64(inst.g.N() - 1))
			state, err := ht.StatePerNode()
			if err != nil {
				return nil, err
			}
			hier.Add(state)
			if s, ok := sampleStretch(inst, ht); ok {
				stretch.Add(s)
			}
		}
		res.FlatState = append(res.FlatState, flat.Mean())
		res.HierState = append(res.HierState, hier.Mean())
		res.Stretch = append(res.Stretch, stretch.Mean())
	}
	return res, nil
}

// sampleStretch averages hop stretch over a systematic sample of
// connected pairs: hierarchical route length against the shortest path a
// flat table would take.
func sampleStretch(inst instance, ht *routing.Hierarchical) (float64, bool) {
	n := inst.g.N()
	var hierHops, flatHops int
	step := n/20 + 1
	for src := 0; src < n; src += step {
		dist := inst.g.Distances(src)
		for dst := step / 2; dst < n; dst += step {
			if src == dst || dist[dst] < 0 {
				continue
			}
			hp, err := ht.Route(src, dst)
			if err != nil {
				continue
			}
			flatHops += dist[dst]
			hierHops += len(hp) - 1
		}
	}
	if flatHops == 0 {
		return 0, false
	}
	return float64(hierHops) / float64(flatHops), true
}

// Render formats the scalability comparison.
func (r *ScalabilityResult) Render() string {
	t := stats.NewTable("Motivation: routing state per node, flat vs hierarchical",
		"lambda", "flat entries/node", "hierarchical entries/node", "path stretch")
	for i := range r.Intensities {
		t.AddRow(fmt.Sprintf("%.0f", r.Intensities[i]),
			fmt.Sprintf("%.0f", r.FlatState[i]),
			fmt.Sprintf("%.1f", r.HierState[i]),
			fmt.Sprintf("%.2fx", r.Stretch[i]))
	}
	return t.String()
}
