// Package experiment contains one driver per table and figure of the
// paper's evaluation (Section 5), plus the runs that check one of its
// claims each:
//
//   - tables.go: Tables 1, 3, 4 and 5; table2.go: Table 2 on the step
//     engine; figures.go: the grid figures;
//   - steps.go: stabilization from corrupted state;
//   - mobility.go: the mobility study, and the one head-retention replay
//     (retention) that it and the metrics and orders ablations share;
//   - ablation.go: the metric and ≺-variant ablations; daemon.go: the
//     randomized-daemon ablation;
//   - stats.go: the running mean and the table renderer they all share.
//
// Each driver is deterministic given its options and returns a structured
// result that renders to a plain-text table shaped like the paper's.
// The CLI (cmd/selfstab-sim -exp) and the root benchmark suite
// (bench_test.go) run through these drivers.
package experiment

import (
	"cmp"
	"fmt"
	"slices"

	"selfstab/internal/cluster"
	"selfstab/internal/dag"
	"selfstab/internal/deploy"
	"selfstab/internal/geom"
	"selfstab/internal/metric"
	"selfstab/internal/mobility"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// Options is the evaluation's one setup: every driver takes it, and
// cmd/selfstab-sim -exp takes its flags' defaults from Defaults. Each
// driver reads Runs, Seed and Intensity; Ranges is read by every driver
// but Mobility, which walks at mobilityRange, and Minutes by Mobility
// alone. A driver refuses only the fields it reads.
type Options struct {
	// Runs is the number of independent repetitions averaged per cell
	// (the paper uses 1000).
	Runs int
	// Seed is the master seed; every run derives its own stream.
	Seed int64
	// Intensity is the Poisson deployment intensity λ (nodes per unit
	// area). 0 runs each experiment at its own: paperIntensity for
	// Tables 3-5, the mobility study and the metrics and orders
	// ablations, and a lighter, assumed λ declared beside each
	// protocol-level driver (Table 2, stabilization, daemons).
	Intensity float64
	// Ranges is the transmission-range sweep. The drivers that run at
	// one range take the first.
	Ranges []float64
	// Minutes is the mobility study's walk duration (the paper walks for
	// 15 minutes).
	Minutes float64
}

// paperIntensity is the paper's deployment intensity for its tables,
// λ = 1000. The mobility study and the metrics and orders ablations
// assume it too.
const paperIntensity = 1000

// Defaults returns the setup the CLI runs without flags: 30 runs of seed
// 1, each experiment at its own intensity, the paper's ranges 0.05, 0.08
// and 0.1, and a 3-minute mobility walk.
func Defaults() Options {
	return Options{Runs: 30, Seed: 1, Ranges: []float64{0.05, 0.08, 0.1}, Minutes: 3}
}

// Validate refuses options some experiment cannot run: no runs, a
// negative intensity, an empty or out-of-(0, 1] range sweep, or a walk
// shorter than one mobility sample. It checks every field, for a caller
// about to run every driver; each driver checks only the fields it reads.
func (o *Options) Validate() error { return o.validate(true, true) }

// validate checks Runs and Intensity, the range sweep if sweep and the
// walk duration if walk.
func (o *Options) validate(sweep, walk bool) error {
	bad := slices.IndexFunc(o.Ranges, func(r float64) bool { return r <= 0 || r > 1 })
	switch {
	case o.Runs < 1:
		return fmt.Errorf("experiment: runs must be >= 1, got %d", o.Runs)
	case !(o.Intensity >= 0):
		return fmt.Errorf("experiment: intensity must be positive, or 0 for each experiment's own, got %v", o.Intensity)
	case sweep && len(o.Ranges) == 0:
		return fmt.Errorf("experiment: empty range sweep")
	case sweep && bad >= 0:
		return fmt.Errorf("experiment: invalid range %v", o.Ranges[bad])
	case walk && !(o.Minutes*60 >= mobility.SampleSec):
		return fmt.Errorf("experiment: bad duration/sample %vs/%vs", o.Minutes*60, mobility.SampleSec)
	}
	return nil
}

// own returns o with a zero Intensity replaced by lambda, the calling
// experiment's own, and refuses it unless it holds a run count, an
// intensity and a range sweep.
func (o Options) own(lambda float64) (Options, error) {
	o.Intensity = cmp.Or(o.Intensity, lambda)
	return o, o.validate(true, false)
}

// instance is one deployed topology with identifiers.
type instance struct {
	pts []geom.Point
	g   *topology.Graph
	ids []int64
}

// deployRandom draws a Poisson deployment with random identifiers.
func deployRandom(intensity, r float64, src *rng.Source) instance {
	pts := deploy.Poisson(intensity, geom.UnitSquare(), src)
	// An empty Poisson draw is theoretically possible at tiny intensities;
	// redraw until non-empty so downstream code has nodes to work with.
	for len(pts) == 0 {
		pts = deploy.Poisson(intensity, geom.UnitSquare(), src)
	}
	return instance{pts: pts, g: topology.FromPoints(pts, r), ids: deploy.AssignIDs(pts, deploy.IDRandom, src)}
}

// deployGrid builds the adversarial grid: ~intensity nodes, row-major
// identifiers (increasing left to right, bottom to top). It draws
// nothing from the run's source, which it takes to fit tableClusters.
func deployGrid(intensity, r float64, _ *rng.Source) instance {
	pts := deploy.GridForIntensity(intensity, geom.UnitSquare())
	return instance{pts: pts, g: topology.FromPoints(pts, r), ids: deploy.AssignIDs(pts, deploy.IDRowMajor, nil)}
}

// tieIDs returns the tie-break identifiers for an instance: DAG colors when
// useDag is set (built with the paper's γ = δ²), else the application ids.
// It also reports the number of steps the DAG construction used (0 when
// disabled).
func tieIDs(inst instance, useDag bool, src *rng.Source) ([]int64, int, error) {
	if !useDag {
		return inst.ids, 0, nil
	}
	res, err := dag.Build(inst.g, inst.ids, dag.PaperGamma(inst.g), 10_000, src)
	if err != nil {
		return nil, 0, err
	}
	return res.Colors, res.Steps, nil
}

// clusterOnce computes the density-driven clustering for an instance.
func clusterOnce(inst instance, useDag bool, src *rng.Source) (*cluster.Assignment, error) {
	ties, _, err := tieIDs(inst, useDag, src)
	if err != nil {
		return nil, err
	}
	return cluster.Compute(inst.g, cluster.Config{
		Values: metric.Density{}.Values(inst.g),
		TieIDs: ties,
		AppIDs: inst.ids,
		Order:  cluster.OrderBasic,
	})
}
