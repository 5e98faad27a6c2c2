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
	r := opts.Ranges[0]
	master := rng.New(opts.Seed)
	metrics := []metric.Metric{metric.Density{}, metric.Degree{}, metric.Constant{}}
	res := &MetricAblationResult{}
	for _, m := range metrics {
		res.Names = append(res.Names, m.Name())
	}
	res.Names = append(res.Names, "max-min(d=2)")
	counts := make([]stats.Welford, 4)
	keeps := make([]stats.Welford, 4)
	const (
		mobilitySamples = 20
		sampleDt        = 2.0
	)
	for run := 0; run < opts.Runs; run++ {
		src := master.SplitN("metrics", run)
		trace, ids, err := recordTrace([2]float64{0, 1.6},
			MobilityOptions{
				Runs: 1, Seed: opts.Seed, Intensity: opts.Intensity, Range: r,
				DurationSec: mobilitySamples * sampleDt, SampleEverySec: sampleDt,
				SpeedBands: [][2]float64{{0, 1.6}},
			}, src)
		if err != nil {
			return nil, err
		}
		// Metric-driven variants share the clustering machinery.
		for mi, m := range metrics {
			a, err := cluster.Compute(trace[0].g, cluster.Config{
				Values: m.Values(trace[0].g),
				TieIDs: ids,
				Order:  cluster.OrderBasic,
			})
			if err != nil {
				return nil, err
			}
			counts[mi].Add(float64(len(a.Heads())))
			w, err := replayMetricTrace(trace, ids, m)
			if err != nil {
				return nil, err
			}
			keeps[mi].Merge(w)
		}
		// Max-min baseline.
		mm, err := cluster.MaxMin(trace[0].g, ids, 2)
		if err != nil {
			return nil, err
		}
		counts[3].Add(float64(mm.NumClusters()))
		w, err := replayMaxMinTrace(trace, ids)
		if err != nil {
			return nil, err
		}
		keeps[3].Merge(w)
	}
	for i := range res.Names {
		res.Clusters = append(res.Clusters, counts[i].Mean())
		res.Retention = append(res.Retention, keeps[i].Mean())
	}
	return res, nil
}

// replayMetricTrace mirrors replayTrace but recomputes the metric at every
// sample (degree and density are topology-dependent).
func replayMetricTrace(trace []sample, ids []int64, m metric.Metric) (stats.Welford, error) {
	var ret stats.Welford
	a, err := cluster.Compute(trace[0].g, cluster.Config{
		Values: m.Values(trace[0].g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		return ret, err
	}
	for _, s := range trace[1:] {
		next, err := cluster.Compute(s.g, cluster.Config{
			Values:   m.Values(s.g),
			TieIDs:   ids,
			Order:    cluster.OrderBasic,
			PrevHead: a.Head,
		})
		if err != nil {
			return ret, err
		}
		ret.Add(retentionPct(a, next))
		a = next
	}
	return ret, nil
}

func retentionPct(prev, next *cluster.Assignment) float64 {
	heads := prev.Heads()
	if len(heads) == 0 {
		return 100
	}
	kept := 0
	for _, h := range heads {
		if next.Head[h] == h {
			kept++
		}
	}
	return 100 * float64(kept) / float64(len(heads))
}

// replayMaxMinTrace measures head retention for the max-min baseline.
func replayMaxMinTrace(trace []sample, ids []int64) (stats.Welford, error) {
	var ret stats.Welford
	prev, err := cluster.MaxMin(trace[0].g, ids, 2)
	if err != nil {
		return ret, err
	}
	for _, s := range trace[1:] {
		next, err := cluster.MaxMin(s.g, ids, 2)
		if err != nil {
			return ret, err
		}
		heads := 0
		kept := 0
		for u := range prev.Head {
			if prev.IsHead(u) {
				heads++
				if next.IsHead(u) {
					kept++
				}
			}
		}
		if heads > 0 {
			ret.Add(100 * float64(kept) / float64(heads))
		}
		prev = next
	}
	return ret, nil
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
	variants := []MobilityVariant{
		{Name: "basic", Order: cluster.OrderBasic},
		{Name: "sticky", Order: cluster.OrderSticky},
		{Name: "sticky+fusion", Order: cluster.OrderSticky, Fusion: true},
	}
	master := rng.New(opts.Seed)
	keeps := make([]stats.Welford, len(variants))
	for run := 0; run < opts.Runs; run++ {
		src := master.SplitN("orders", run)
		trace, ids, err := recordTrace([2]float64{0, 1.6}, MobilityOptions{
			Runs: 1, Seed: opts.Seed, Intensity: opts.Intensity, Range: opts.Ranges[0],
			DurationSec: 60, SampleEverySec: 2,
			SpeedBands: [][2]float64{{0, 1.6}},
		}, src)
		if err != nil {
			return nil, err
		}
		for vi, v := range variants {
			w, err := replayTrace(trace, ids, v)
			if err != nil {
				return nil, err
			}
			keeps[vi].Merge(w)
		}
	}
	res := &OrderAblationResult{}
	for vi, v := range variants {
		res.Names = append(res.Names, v.Name)
		res.Retention = append(res.Retention, keeps[vi].Mean())
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
