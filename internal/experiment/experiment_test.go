package experiment

import (
	"math"
	"strings"
	"testing"
)

// small returns cheap options for unit tests (benches use bigger ones).
func small() Options {
	return Options{Runs: 3, Seed: 7, Intensity: 300, Ranges: []float64{0.08}}
}

func TestOptionsValidate(t *testing.T) {
	table3 := func(o Options) error { _, err := Table3(o); return err }
	mob := func(o Options) error { _, err := Mobility(o); return err }
	tests := []struct {
		name   string
		mutate func(*Options)
		run    func(Options) error // a driver that reads the field
	}{
		{"zero runs", func(o *Options) { o.Runs = 0 }, table3},
		{"bad intensity", func(o *Options) { o.Intensity = -1 }, table3},
		{"empty ranges", func(o *Options) { o.Ranges = nil }, table3},
		{"range too big", func(o *Options) { o.Ranges = []float64{1.5} }, table3},
		{"range negative", func(o *Options) { o.Ranges = []float64{-0.1} }, table3},
		{"walk shorter than a sample", func(o *Options) { o.Minutes = 1.0 / 60 }, mob},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := Options{Runs: 1, Seed: 1, Intensity: 300, Ranges: []float64{0.1}, Minutes: 1}
			tt.mutate(&o)
			if o.Validate() == nil {
				t.Error("Validate accepted invalid options")
			}
			if tt.run(o) == nil {
				t.Error("driver accepted invalid options")
			}
		})
	}
	// A driver refuses only the fields it reads.
	if err := table3(Options{Runs: 1, Seed: 1, Intensity: 300, Ranges: []float64{0.1}}); err != nil {
		t.Errorf("Table3 without a walk duration: %v", err)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Spot checks against the published row (full checks live in the
	// metric and cluster packages).
	byName := make(map[string]int, len(r.Names))
	for i, n := range r.Names {
		byName[n] = i
	}
	if got := r.Density[byName["b"]]; got != 1.25 {
		t.Errorf("density(b) = %v", got)
	}
	if got := r.Head[byName["c"]]; got != "h" {
		t.Errorf("H(c) = %v", got)
	}
	if got := r.Head[byName["f"]]; got != "j" {
		t.Errorf("H(f) = %v", got)
	}
	out := r.Render()
	if !strings.Contains(out, "1-density") || !strings.Contains(out, "1.25") {
		t.Errorf("render missing expected content:\n%s", out)
	}
}

// Paper Table 3: building the DAG takes about 2 steps at every range, on
// the grid and on random geometry alike. The mean must lie in
// [table3MinSteps, table3MaxSteps].
const (
	table3MinSteps = 1
	table3MaxSteps = 5
)

func TestTable3StepsAreSmallConstant(t *testing.T) {
	res, err := Table3(small())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Ranges {
		if res.GridSteps[i] < table3MinSteps || res.GridSteps[i] > table3MaxSteps {
			t.Errorf("grid steps at R=%v: %v, want ~2", res.Ranges[i], res.GridSteps[i])
		}
		if res.RandomSteps[i] < table3MinSteps || res.RandomSteps[i] > table3MaxSteps {
			t.Errorf("random steps at R=%v: %v, want ~2", res.Ranges[i], res.RandomSteps[i])
		}
	}
	if !strings.Contains(res.Render(), "Grid") {
		t.Error("render missing Grid row")
	}
}

// Paper Table 4: on random geometry the DAG barely changes the outcome
// (61.0 vs 61.4 clusters, and so on). At this test's smaller scale the
// cluster counts with and without the DAG may differ by at most this
// fraction of the count without it.
const table4MaxClusterGap = 0.25

func TestTable4DagChangesLittle(t *testing.T) {
	res, err := Table4(small())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Ranges {
		with, without := res.WithDag[i], res.NoDag[i]
		if with.Clusters <= 0 || without.Clusters <= 0 {
			t.Fatalf("no clusters found")
		}
		rel := math.Abs(with.Clusters-without.Clusters) / without.Clusters
		if rel > table4MaxClusterGap {
			t.Errorf("R=%v: cluster counts diverge with DAG: %v vs %v",
				res.Ranges[i], with.Clusters, without.Clusters)
		}
	}
}

// Paper Table 5: on the row-major grid, without the DAG all nodes
// collapse into one network-diameter cluster whose head sits far
// off-center; the DAG restores many small clusters with short trees.
const (
	table5MaxCollapsedClusters = 2 // clusters without the DAG: one, plus slack
	table5MinClusterGain       = 5 // clusters with the DAG per cluster without
	table5MinEccentricityGain  = 3 // head eccentricity without the DAG per unit with it
)

func TestTable5DagRescuesGrid(t *testing.T) {
	opts := small()
	opts.Intensity = 1000 // the adversarial effect needs the real grid
	opts.Runs = 2
	res, err := Table5(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Ranges {
		with, without := res.WithDag[i], res.NoDag[i]
		// Paper Table 5: without the DAG the grid collapses to ONE cluster.
		if without.Clusters > table5MaxCollapsedClusters {
			t.Errorf("R=%v: expected collapse without DAG, got %v clusters",
				res.Ranges[i], without.Clusters)
		}
		// With the DAG, many clusters appear.
		if with.Clusters < table5MinClusterGain*without.Clusters {
			t.Errorf("R=%v: DAG should multiply clusters: %v vs %v",
				res.Ranges[i], with.Clusters, without.Clusters)
		}
		// Tree length (stabilization proxy) collapses with the DAG.
		if with.TreeLength >= without.TreeLength {
			t.Errorf("R=%v: DAG should shrink tree length: %v vs %v",
				res.Ranges[i], with.TreeLength, without.TreeLength)
		}
		// The head of the giant cluster is far off-center.
		if without.Eccentricity < table5MinEccentricityGain*with.Eccentricity {
			t.Errorf("R=%v: eccentricity shape off: %v vs %v",
				res.Ranges[i], without.Eccentricity, with.Eccentricity)
		}
	}
}

func TestMobilityImprovementHelps(t *testing.T) {
	res, err := Mobility(Options{Runs: 2, Seed: 1, Intensity: 300, Minutes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retention) != 2 {
		t.Fatalf("got %d bands", len(res.Retention))
	}
	for bi := range res.Bands {
		improved, basic := res.Retention[bi][0], res.Retention[bi][1]
		if improved < basic-3 { // allow small-sample noise but not a reversal
			t.Errorf("band %v: improved %.1f%% worse than basic %.1f%%",
				res.Bands[bi], improved, basic)
		}
		if improved <= 0 || improved > 100 || basic <= 0 || basic > 100 {
			t.Errorf("band %v: retention out of range: %v / %v", res.Bands[bi], improved, basic)
		}
	}
	// Faster movement must hurt stability (pedestrian vs vehicle).
	if res.Retention[0][1] < res.Retention[1][1] {
		t.Errorf("vehicle band should be less stable: %v vs %v",
			res.Retention[0][1], res.Retention[1][1])
	}
	if !strings.Contains(res.Render(), "%") {
		t.Error("render missing percentages")
	}
}

func TestMobilityValidation(t *testing.T) {
	opts := Defaults()
	opts.Minutes = 1.0 / 60
	if _, err := Mobility(opts); err == nil {
		t.Error("a walk shorter than one sample accepted")
	}
	// The study walks at mobilityRange, so it needs no range sweep.
	if _, err := Mobility(Options{Runs: 1, Seed: 1, Intensity: 300, Minutes: 2.0 / 60}); err != nil {
		t.Errorf("Mobility without Ranges: %v", err)
	}
}

func TestAblationMetricsRuns(t *testing.T) {
	opts := small()
	opts.Runs = 2
	res, err := AblationMetrics(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 4 || len(res.Clusters) != 4 || len(res.Retention) != 4 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	for i, c := range res.Clusters {
		if c <= 0 {
			t.Errorf("%s produced %v clusters", res.Names[i], c)
		}
	}
	if !strings.Contains(res.Render(), "max-min") {
		t.Error("render missing baseline")
	}
}

func TestAblationOrdersMonotone(t *testing.T) {
	opts := small()
	opts.Runs = 2
	res, err := AblationOrders(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 3 {
		t.Fatalf("names: %v", res.Names)
	}
	for _, v := range res.Retention {
		if v <= 0 || v > 100 {
			t.Errorf("retention out of range: %v", v)
		}
	}
}

func TestStabilizationShape(t *testing.T) {
	opts := Options{Runs: 2, Seed: 3, Intensity: 400, Ranges: []float64{0.06}}
	res, err := Stabilization(opts)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]int, len(res.Scenarios))
	for i, s := range res.Scenarios {
		byName[s] = i
	}
	gridDag := res.ColdSteps[byName["grid + DAG"]]
	gridNo := res.ColdSteps[byName["grid, no DAG"]]
	// The headline claim: the DAG drastically reduces stabilization steps
	// on the adversarial grid.
	if gridDag >= gridNo {
		t.Errorf("grid: DAG %.1f steps not faster than no-DAG %.1f", gridDag, gridNo)
	}
	for i := range res.Scenarios {
		if res.RecoverSteps[i] <= 0 {
			t.Errorf("%s: corruption recovery reported %.1f steps", res.Scenarios[i], res.RecoverSteps[i])
		}
	}
	if !strings.Contains(res.Render(), "cold start") {
		t.Error("render missing columns")
	}
}

func TestFigureGrid(t *testing.T) {
	fig, err := FigureGrid(false, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.SVG, "<svg") {
		t.Error("figure 2 svg malformed")
	}
	if !strings.Contains(fig.Caption, "DAG=false") {
		t.Errorf("caption: %s", fig.Caption)
	}
	fig3, err := FigureGrid(true, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig3.Caption, "DAG=true") {
		t.Errorf("caption: %s", fig3.Caption)
	}
	if _, err := FigureGrid(true, 1, 0); err == nil {
		t.Error("invalid range accepted")
	}
}

func TestFigure1(t *testing.T) {
	fig, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.SVG, "<svg") || fig.ASCII == "" {
		t.Error("figure 1 rendering incomplete")
	}
	if !strings.Contains(fig.Caption, "two clusters") {
		t.Errorf("caption: %s", fig.Caption)
	}
}
