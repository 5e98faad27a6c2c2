package experiment

import (
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/dag"
	"selfstab/internal/metric"
	"selfstab/internal/rng"
	"selfstab/internal/stats"
)

// GammaAblationResult quantifies the Section 4.1 trade-off: a larger color
// space converges faster but allows a taller DAG (and hence slower
// downstream stabilization).
type GammaAblationResult struct {
	// Labels names the gamma choices (delta, delta^2, delta^6-ish).
	Labels []string
	// BuildSteps is the mean number of steps of Algorithm N1.
	BuildSteps []float64
	// Height is the mean height of the color DAG.
	Height []float64
	// ClusterRounds is the mean number of fixpoint rounds of the cluster
	// layer when ties break on these colors.
	ClusterRounds []float64
}

// AblationGamma sweeps the color-space size on the adversarial grid (where
// ties actually matter).
func AblationGamma(opts Options) (*GammaAblationResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := opts.Ranges[0]
	master := rng.New(opts.Seed)
	gammas := []struct {
		label string
		of    func(delta int) int64
	}{
		{"delta+1", func(d int) int64 { return int64(d) + 1 }},
		{"delta^2", func(d int) int64 { return maxI64(int64(d)*int64(d), int64(d)+1) }},
		{"delta^3", func(d int) int64 { return maxI64(int64(d)*int64(d)*int64(d), int64(d)+1) }},
	}
	res := &GammaAblationResult{}
	for _, gm := range gammas {
		var steps, height, rounds stats.Welford
		for run := 0; run < opts.Runs; run++ {
			src := master.SplitN("gamma-"+gm.label, run)
			inst := deployGrid(opts.Intensity, r, src)
			gamma := gm.of(inst.g.MaxDegree())
			dres, err := dag.Build(inst.g, inst.ids, gamma, 100_000, src)
			if err != nil {
				return nil, fmt.Errorf("gamma ablation %s: %w", gm.label, err)
			}
			steps.Add(float64(dres.Steps))
			height.Add(float64(dag.Height(inst.g, dag.ColorLess(dres.Colors, inst.ids))))
			a, err := cluster.Compute(inst.g, cluster.Config{
				Values: metric.Density{}.Values(inst.g),
				TieIDs: dres.Colors,
				AppIDs: inst.ids,
				Order:  cluster.OrderBasic,
			})
			if err != nil {
				return nil, err
			}
			rounds.Add(float64(a.Rounds))
		}
		res.Labels = append(res.Labels, gm.label)
		res.BuildSteps = append(res.BuildSteps, steps.Mean())
		res.Height = append(res.Height, height.Mean())
		res.ClusterRounds = append(res.ClusterRounds, rounds.Mean())
	}
	return res, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Render formats the gamma ablation.
func (r *GammaAblationResult) Render() string {
	t := stats.NewTable("Ablation: color-space size |gamma| (adversarial grid)",
		"gamma", "N1 steps", "DAG height", "cluster rounds")
	for i := range r.Labels {
		t.AddRow(r.Labels[i],
			fmt.Sprintf("%.2f", r.BuildSteps[i]),
			fmt.Sprintf("%.1f", r.Height[i]),
			fmt.Sprintf("%.1f", r.ClusterRounds[i]))
	}
	return t.String()
}

// MetricAblationResult compares clustering metrics (density vs degree vs
// lowest-id vs max-min) on cluster count and head stability under mobility
// — the paper's Section 3 "features" claim.
type MetricAblationResult struct {
	Names     []string
	Clusters  []float64 // mean cluster count on a static deployment
	Retention []float64 // mean head retention % under pedestrian mobility
}

// AblationMetrics runs the metric comparison. Max-min d-cluster (d=2) is
// included as the structurally different baseline.
func AblationMetrics(opts Options) (*MetricAblationResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	elections := []election{
		{name: metric.Density{}.Name(), metric: metric.Density{}, order: cluster.OrderBasic},
		{name: metric.Degree{}.Name(), metric: metric.Degree{}, order: cluster.OrderBasic},
		{name: metric.Constant{}.Name(), metric: metric.Constant{}, order: cluster.OrderBasic},
		{name: "max-min(d=2)"},
	}
	keep, clusters, err := replayRuns(rng.New(opts.Seed), "metrics", pedestrian,
		pedestrianWalk(opts, 40), elections)
	if err != nil {
		return nil, err
	}
	res := &MetricAblationResult{}
	for i, e := range elections {
		res.Names = append(res.Names, e.name)
		res.Clusters = append(res.Clusters, clusters[i].Mean())
		res.Retention = append(res.Retention, keep[i].Mean())
	}
	return res, nil
}

// pedestrian is the paper's pedestrian speed band in m/s.
var pedestrian = [2]float64{0, 1.6}

// pedestrianWalk is the ablations' mobility setup: opts.Runs walks at the
// first range, sampled every 2 s for durationSec seconds.
func pedestrianWalk(opts Options, durationSec float64) MobilityOptions {
	return MobilityOptions{
		Runs: opts.Runs, Intensity: opts.Intensity, Range: opts.Ranges[0],
		DurationSec: durationSec, SampleEverySec: 2,
	}
}

// Render formats the metric ablation.
func (r *MetricAblationResult) Render() string {
	t := stats.NewTable("Ablation: cluster-head selection metrics",
		"metric", "# clusters", "head retention %")
	for i := range r.Names {
		t.AddRow(r.Names[i],
			fmt.Sprintf("%.1f", r.Clusters[i]),
			fmt.Sprintf("%.1f", r.Retention[i]))
	}
	return t.String()
}

// OrderAblationResult compares the ≺ variants on head stability.
type OrderAblationResult struct {
	Names     []string
	Retention []float64
}

// AblationOrders compares basic, sticky, and sticky+fusion under pedestrian
// mobility — isolating how much each Section 4.3 rule contributes.
func AblationOrders(opts Options) (*OrderAblationResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	elections := []election{
		{name: "basic", metric: metric.Density{}, order: cluster.OrderBasic},
		{name: "sticky", metric: metric.Density{}, order: cluster.OrderSticky},
		{name: "sticky+fusion", metric: metric.Density{}, order: cluster.OrderSticky, fusion: true},
	}
	keep, _, err := replayRuns(rng.New(opts.Seed), "orders", pedestrian,
		pedestrianWalk(opts, 60), elections)
	if err != nil {
		return nil, err
	}
	res := &OrderAblationResult{}
	for i, e := range elections {
		res.Names = append(res.Names, e.name)
		res.Retention = append(res.Retention, keep[i].Mean())
	}
	return res, nil
}

// Render formats the order ablation.
func (r *OrderAblationResult) Render() string {
	t := stats.NewTable("Ablation: ≺ variants under pedestrian mobility",
		"variant", "head retention %")
	for i := range r.Names {
		t.AddRow(r.Names[i], fmt.Sprintf("%.1f", r.Retention[i]))
	}
	return t.String()
}
