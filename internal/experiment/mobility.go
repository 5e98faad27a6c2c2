package experiment

import (
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/geom"
	"selfstab/internal/metric"
	"selfstab/internal/mobility"
	"selfstab/internal/rng"
	"selfstab/internal/stats"
	"selfstab/internal/topology"
)

// MobilityOptions configures the Section 5 mobility study.
type MobilityOptions struct {
	// Runs averages over independent deployments/trajectories.
	Runs int
	// Seed is the master seed.
	Seed int64
	// Intensity is the deployment intensity λ.
	Intensity float64
	// Range is the transmission range.
	Range float64
	// DurationSec is the simulated time (the paper uses 15 minutes).
	DurationSec float64
	// SampleEverySec is the sampling period (the paper uses 2 s).
	SampleEverySec float64
	// SpeedBands lists the (min, max) speed bands in m/s; the paper uses
	// 0-1.6 (pedestrians) and 0-10 (cars).
	SpeedBands [][2]float64
}

// MobilityDefaults mirrors the paper's setup with a shorter duration and
// fewer runs; the CLI can restore the full 15-minute, many-run protocol.
func MobilityDefaults() MobilityOptions {
	return MobilityOptions{
		Runs:           5,
		Seed:           1,
		Intensity:      600,
		Range:          0.1,
		DurationSec:    180,
		SampleEverySec: 2,
		SpeedBands:     [][2]float64{{0, 1.6}, {0, 10}},
	}
}

func (o *MobilityOptions) validate() error {
	if o.Runs < 1 {
		return fmt.Errorf("mobility experiment: runs must be >= 1")
	}
	if o.Intensity <= 0 || o.Range <= 0 || o.Range > 1 {
		return fmt.Errorf("mobility experiment: bad intensity/range %v/%v", o.Intensity, o.Range)
	}
	if o.DurationSec <= 0 || o.SampleEverySec <= 0 || o.SampleEverySec > o.DurationSec {
		return fmt.Errorf("mobility experiment: bad duration/sample %v/%v", o.DurationSec, o.SampleEverySec)
	}
	if len(o.SpeedBands) == 0 {
		return fmt.Errorf("mobility experiment: no speed bands")
	}
	return nil
}

// MobilityVariant identifies a protocol variant in the comparison.
type MobilityVariant struct {
	Name   string
	Order  cluster.Order
	Fusion bool
}

// MobilityResult holds, per speed band and variant, the mean percentage of
// cluster-heads still heads at the next 2-second sample.
type MobilityResult struct {
	Bands    [][2]float64
	Variants []MobilityVariant
	// Retention[band][variant] is the mean retention percentage.
	Retention [][]float64
}

// Mobility runs the paper's head-stability study: nodes move randomly at
// random speeds; every sample period the clustering is recomputed (seeded
// with the previous configuration) and we record which heads survived.
// The Section 4.3 rules (sticky order + fusion) are compared against the
// plain algorithm; the paper reports ~82% vs ~78% at pedestrian speeds and
// ~31% vs ~25% at vehicle speeds.
func Mobility(opts MobilityOptions) (*MobilityResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	variants := []MobilityVariant{
		{Name: "improved (sticky+fusion)", Order: cluster.OrderSticky, Fusion: true},
		{Name: "basic", Order: cluster.OrderBasic, Fusion: false},
	}
	master := rng.New(opts.Seed)
	res := &MobilityResult{Bands: opts.SpeedBands, Variants: variants}
	for _, band := range opts.SpeedBands {
		retention := make([]stats.Welford, len(variants))
		for run := 0; run < opts.Runs; run++ {
			src := master.SplitN(fmt.Sprintf("mob-%v-%v", band[0], band[1]), run)
			trace, ids, err := recordTrace(band, opts, src)
			if err != nil {
				return nil, err
			}
			for vi, v := range variants {
				w, err := replayTrace(trace, ids, v)
				if err != nil {
					return nil, fmt.Errorf("mobility %s: %w", v.Name, err)
				}
				retention[vi].Merge(w)
			}
		}
		row := make([]float64, len(variants))
		for vi := range variants {
			row[vi] = retention[vi].Mean()
		}
		res.Retention = append(res.Retention, row)
	}
	return res, nil
}

// sample is one precomputed snapshot of a mobility trace: the topology and
// the density values at a sampling instant. Precomputing the trace lets
// every protocol variant replay the exact same motion, which is what makes
// the with/without-improvements comparison paired (and fast: topology and
// densities are variant-independent).
type sample struct {
	g      *topology.Graph
	values []float64
}

// recordTrace deploys one network, walks it for the configured duration and
// captures a snapshot every sampling period (index 0 is the initial state).
func recordTrace(band [2]float64, opts MobilityOptions, src *rng.Source) ([]sample, []int64, error) {
	inst := deployRandom(opts.Intensity, opts.Range, src)
	walker, err := mobility.NewRandomWalk(
		inst.dep.Points, geom.UnitSquare(),
		mobility.SpeedToUnits(band[0]), mobility.SpeedToUnits(band[1]),
		30, src.Split("walk"))
	if err != nil {
		return nil, nil, err
	}
	samples := int(opts.DurationSec / opts.SampleEverySec)
	trace := make([]sample, 0, samples+1)
	// The grid index persists across samples: each mobility step only
	// repairs the edges of nodes that moved instead of rebuilding the
	// unit-disk graph. Samples retain a frozen Clone because Update
	// mutates the index's graph in place.
	idx := topology.NewGridIndexInRegion(walker.Positions(), opts.Range, geom.UnitSquare())
	snap := func() error {
		if err := idx.Update(walker.Positions()); err != nil {
			return err
		}
		g := idx.Graph().Clone()
		trace = append(trace, sample{g: g, values: metric.Density{}.Values(g)})
		return nil
	}
	if err := snap(); err != nil {
		return nil, nil, err
	}
	for s := 0; s < samples; s++ {
		walker.Step(opts.SampleEverySec)
		if err := snap(); err != nil {
			return nil, nil, err
		}
	}
	return trace, inst.ids, nil
}

// replayTrace runs one protocol variant over a recorded trace and
// accumulates per-sample head retention percentages.
func replayTrace(trace []sample, ids []int64, v MobilityVariant) (stats.Welford, error) {
	var ret stats.Welford
	a, err := cluster.Compute(trace[0].g, cluster.Config{
		Values: trace[0].values,
		TieIDs: ids,
		Order:  v.Order,
		Fusion: v.Fusion,
	})
	if err != nil {
		return ret, err
	}
	for _, s := range trace[1:] {
		next, err := cluster.Compute(s.g, cluster.Config{
			Values:   s.values,
			TieIDs:   ids,
			Order:    v.Order,
			Fusion:   v.Fusion,
			PrevHead: a.Head,
		})
		if err != nil {
			return ret, err
		}
		prevHeads := a.Heads()
		if len(prevHeads) > 0 {
			kept := 0
			for _, h := range prevHeads {
				if next.Head[h] == h {
					kept++
				}
			}
			ret.Add(100 * float64(kept) / float64(len(prevHeads)))
		}
		a = next
	}
	return ret, nil
}

// Render formats the result like the paper's prose summary.
func (r *MobilityResult) Render() string {
	header := []string{"speed band (m/s)"}
	for _, v := range r.Variants {
		header = append(header, v.Name)
	}
	t := stats.NewTable("Mobility: % cluster-heads re-elected at each 2s sample", header...)
	for bi, band := range r.Bands {
		cells := []string{fmt.Sprintf("%.1f-%.1f", band[0], band[1])}
		for vi := range r.Variants {
			cells = append(cells, fmt.Sprintf("%.1f%%", r.Retention[bi][vi]))
		}
		t.AddRow(cells...)
	}
	return t.String()
}
