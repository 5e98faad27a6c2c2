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
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/dag"
	"selfstab/internal/deploy"
	"selfstab/internal/geom"
	"selfstab/internal/metric"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// Options are the shared experiment knobs. The zero value is not valid:
// every field must be set (cmd/selfstab-sim fills them from its flags).
type Options struct {
	// Runs is the number of independent repetitions averaged per cell
	// (the paper uses 1000).
	Runs int
	// Seed is the master seed; every run derives its own stream.
	Seed int64
	// Intensity is the Poisson deployment intensity λ (nodes per unit
	// area; the paper's tables use 1000).
	Intensity float64
	// Ranges is the transmission-range sweep.
	Ranges []float64
}

// Validate refuses options no experiment can run: no runs, a
// non-positive intensity, or an empty or out-of-(0, 1] range sweep.
func (o *Options) Validate() error {
	if o.Runs < 1 {
		return fmt.Errorf("experiment: runs must be >= 1, got %d", o.Runs)
	}
	if o.Intensity <= 0 {
		return fmt.Errorf("experiment: intensity must be positive, got %v", o.Intensity)
	}
	if len(o.Ranges) == 0 {
		return fmt.Errorf("experiment: empty range sweep")
	}
	for _, r := range o.Ranges {
		if r <= 0 || r > 1 {
			return fmt.Errorf("experiment: invalid range %v", r)
		}
	}
	return nil
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
