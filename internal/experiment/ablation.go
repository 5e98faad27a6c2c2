package experiment

import (
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/metric"
	"selfstab/internal/mobility"
	"selfstab/internal/rng"
)

// MetricAblationResult compares clustering metrics (density vs degree vs
// lowest-id vs max-min) on cluster count and head stability under mobility
// — the paper's Section 3 "features" claim.
type MetricAblationResult struct {
	Names     []string
	Clusters  []float64 // mean cluster count on a static deployment
	Retention []float64 // mean head retention % under pedestrian mobility
}

// metricsWalkSec is how long the metrics ablation walks each run
// (assumed).
const metricsWalkSec = 40

// AblationMetrics runs the metric comparison on opts.Runs pedestrian
// walks at the first range. Max-min d-cluster (d=2) is included as the
// structurally different baseline.
func AblationMetrics(opts Options) (*MetricAblationResult, error) {
	opts, err := opts.own(paperIntensity)
	if err != nil {
		return nil, err
	}
	elections := []election{
		{name: metric.Density{}.Name(), metric: metric.Density{}, order: cluster.OrderBasic},
		{name: metric.Degree{}.Name(), metric: metric.Degree{}, order: cluster.OrderBasic},
		{name: metric.Constant{}.Name(), metric: metric.Constant{}, order: cluster.OrderBasic},
		{name: "max-min(d=2)"},
	}
	keep, clusters, err := replayRuns(rng.New(opts.Seed), "metrics",
		opts, mobility.Pedestrian, opts.Ranges[0], metricsWalkSec, elections)
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

// Render formats the metric ablation.
func (r *MetricAblationResult) Render() string {
	t := NewTable("Ablation: cluster-head selection metrics",
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

// ordersWalkSec is how long the orders ablation walks each run
// (assumed).
const ordersWalkSec = 60

// AblationOrders compares basic, sticky, and sticky+fusion on opts.Runs
// pedestrian walks at the first range, isolating how much each Section
// 4.3 rule contributes.
func AblationOrders(opts Options) (*OrderAblationResult, error) {
	opts, err := opts.own(paperIntensity)
	if err != nil {
		return nil, err
	}
	elections := []election{
		{name: "basic", metric: metric.Density{}, order: cluster.OrderBasic},
		{name: "sticky", metric: metric.Density{}, order: cluster.OrderSticky},
		{name: "sticky+fusion", metric: metric.Density{}, order: cluster.OrderSticky, fusion: true},
	}
	keep, _, err := replayRuns(rng.New(opts.Seed), "orders",
		opts, mobility.Pedestrian, opts.Ranges[0], ordersWalkSec, elections)
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
	t := NewTable("Ablation: ≺ variants under pedestrian mobility",
		"variant", "head retention %")
	for i := range r.Names {
		t.AddRow(r.Names[i], fmt.Sprintf("%.1f", r.Retention[i]))
	}
	return t.String()
}
