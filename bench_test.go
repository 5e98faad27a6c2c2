// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the stabilization run and the metric, ≺-variant and
// daemon ablations, each of which checks one of its claims. Each
// benchmark runs the corresponding experiment driver at a tractable
// scale, reports the headline quantity via b.ReportMetric, and logs the
// paper-shaped table once (go test -bench=. -v shows it; README's
// "Reproducing the paper's experiments" says how to run them at full
// scale).
package selfstab_test

import (
	"sync"
	"testing"

	"selfstab/internal/experiment"
)

// benchOpts returns experiment options sized for a benchmark iteration:
// the defaults at runs and intensity, and at ranges when any are given.
func benchOpts(runs int, intensity float64, ranges ...float64) experiment.Options {
	o := experiment.Defaults()
	o.Runs, o.Intensity = runs, intensity
	if len(ranges) > 0 {
		o.Ranges = ranges
	}
	return o
}

// logOnce logs a rendered table a single time per benchmark.
var logOnce sync.Map

func logTable(b *testing.B, key, table string) {
	b.Helper()
	if _, loaded := logOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + table)
	}
}

// BenchmarkTable1Example regenerates the worked example (Table 1 +
// Figure 1): densities and the two-cluster outcome on the 9-node fixture.
func BenchmarkTable1Example(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "table1", res.Render())
		}
	}
}

// BenchmarkTable2StepKnowledge regenerates Table 2 at protocol level: the
// fraction of nodes with exact neighbor/density/father/head knowledge
// after each Δ(τ) step (paper: neighbors after 1, density after 2, father
// after 3; heads after tree-depth more).
func BenchmarkTable2StepKnowledge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table2(benchOpts(3, 300, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "table2", res.Render())
			b.ReportMetric(float64(res.AllHeadsAtStep), "headsExactAtStep")
		}
	}
}

// BenchmarkTable3DAGSteps regenerates Table 3: mean steps to build the DAG
// on the grid and on random geometry (paper: ~2 everywhere).
func BenchmarkTable3DAGSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table3(benchOpts(3, 1000))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "table3", res.Render())
			b.ReportMetric(res.GridSteps[0], "gridSteps@0.05")
		}
	}
}

// BenchmarkTable4RandomGeometric regenerates Table 4: cluster features on
// the random geometric graph, with and without the DAG (paper: the DAG
// changes almost nothing when identifiers are well spread).
func BenchmarkTable4RandomGeometric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table4(benchOpts(3, 1000))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "table4", res.Render())
			b.ReportMetric(res.WithDag[0].Clusters, "clusters@0.05")
		}
	}
}

// BenchmarkTable5AdversarialGrid regenerates Table 5: the row-major grid
// (paper: without the DAG the network collapses into one cluster; with it,
// dozens of clusters and constant-time stabilization).
func BenchmarkTable5AdversarialGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table5(benchOpts(2, 1000))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "table5", res.Render())
			b.ReportMetric(res.NoDag[0].Clusters, "noDagClusters@0.05")
			b.ReportMetric(res.WithDag[0].Clusters, "dagClusters@0.05")
		}
	}
}

// BenchmarkFigure2GridNoDAG regenerates Figure 2: the grid without the DAG
// (one giant cluster), including the SVG rendering.
func BenchmarkFigure2GridNoDAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.FigureGrid(false, 1, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "figure2", fig.Caption)
		}
	}
}

// BenchmarkFigure3GridDAG regenerates Figure 3: the grid with the DAG
// (many clusters), including the SVG rendering.
func BenchmarkFigure3GridDAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.FigureGrid(true, 1, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "figure3", fig.Caption)
		}
	}
}

// BenchmarkMobilityReelection regenerates the Section 5 mobility study:
// cluster-head retention per 2-second sample at pedestrian and vehicle
// speeds, with and without the Section 4.3 improvements (paper: 82%/78%
// and 31%/25%).
func BenchmarkMobilityReelection(b *testing.B) {
	opts := experiment.Defaults()
	opts.Runs, opts.Intensity, opts.Minutes = 2, 600, 1
	for i := 0; i < b.N; i++ {
		res, err := experiment.Mobility(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "mobility", res.Render())
			b.ReportMetric(res.Retention[0][0], "improvedPedestrian%")
			b.ReportMetric(res.Retention[0][1], "basicPedestrian%")
		}
	}
}

// BenchmarkConvergenceVsDAGHeight is the Lemma 2 / Theorem 1 measurement:
// distributed stabilization steps with and without the DAG, cold start and
// after total corruption (paper: constant with the DAG, diameter-bound
// without).
func BenchmarkConvergenceVsDAGHeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Stabilization(benchOpts(2, 400, 0.06))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "stabilization", res.Render())
			b.ReportMetric(res.ColdSteps[0], "gridDagSteps")
			b.ReportMetric(res.ColdSteps[1], "gridNoDagSteps")
		}
	}
}

// BenchmarkAblationMetrics compares density against the degree, lowest-id
// and max-min baselines on cluster count and mobility stability (the
// paper's Section 3 claim that density is the most stable).
func BenchmarkAblationMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.AblationMetrics(benchOpts(2, 300, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "metrics", res.Render())
		}
	}
}

// BenchmarkAblationOrderVariants isolates the contribution of each
// Section 4.3 rule: basic vs sticky vs sticky+fusion head retention.
func BenchmarkAblationOrderVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.AblationOrders(benchOpts(2, 300, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "orders", res.Render())
		}
	}
}

// BenchmarkAblationDaemons sweeps the randomized daemon's activation
// probability: stabilization must hold at any probability > 0, slowing
// roughly proportionally (the paper's weak execution assumption).
func BenchmarkAblationDaemons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.AblationDaemons(benchOpts(2, 200, 0.12))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, "daemons", res.Render())
		}
	}
}
