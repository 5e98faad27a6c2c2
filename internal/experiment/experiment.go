// Package experiment contains one driver per table and figure of the
// paper's evaluation (Section 5), plus the ablations (ablation.go,
// daemon.go) and the routing-state comparison behind the paper's
// motivation (scalability.go).
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

func (o *Options) validate() error {
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
	dep *deploy.Deployment
	g   *topology.Graph
	ids []int64
}

// deployRandom draws a Poisson deployment with random identifiers.
func deployRandom(intensity, r float64, src *rng.Source) instance {
	dep := deploy.Poisson(intensity, geom.UnitSquare(), deploy.IDRandom, src)
	// An empty Poisson draw is theoretically possible at tiny intensities;
	// redraw until non-empty so downstream code has nodes to work with.
	for dep.N() == 0 {
		dep = deploy.Poisson(intensity, geom.UnitSquare(), deploy.IDRandom, src)
	}
	return instance{dep: dep, g: topology.FromPoints(dep.Points, r), ids: dep.IDs}
}

// deployGrid builds the adversarial grid: ~intensity nodes, row-major
// identifiers (increasing left to right, bottom to top).
func deployGrid(intensity, r float64, src *rng.Source) instance {
	dep := deploy.GridForIntensity(intensity, geom.UnitSquare(), deploy.IDRowMajor, src)
	return instance{dep: dep, g: topology.FromPoints(dep.Points, r), ids: dep.IDs}
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
