package experiment

import (
	"cmp"
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/geom"
	"selfstab/internal/metric"
	"selfstab/internal/mobility"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// mobilityRange is the mobility study's transmission range, the largest
// of the paper's table ranges (assumed).
const mobilityRange = 0.1

// MobilityResult holds, per speed band and variant, the mean percentage of
// cluster-heads still heads at the next sample.
type MobilityResult struct {
	Bands    [][2]float64
	Variants []string
	// Retention[band][variant] is the mean retention percentage.
	Retention [][]float64
}

// Mobility runs the paper's head-stability study: nodes move randomly at
// random speeds; every sample period the clustering is recomputed (seeded
// with the previous configuration) and we record which heads survived.
// The Section 4.3 rules (sticky order + fusion) are compared against the
// plain algorithm; the paper reports ~82% vs ~78% at pedestrian speeds and
// ~31% vs ~25% at vehicle speeds. It walks opts.Minutes in each of the
// paper's speed bands at mobilityRange.
func Mobility(opts Options) (*MobilityResult, error) {
	opts.Intensity = cmp.Or(opts.Intensity, paperIntensity)
	if err := opts.validate(false, true); err != nil {
		return nil, err
	}
	elections := []election{
		{name: "improved (sticky+fusion)", metric: metric.Density{}, order: cluster.OrderSticky, fusion: true},
		{name: "basic", metric: metric.Density{}, order: cluster.OrderBasic},
	}
	master := rng.New(opts.Seed)
	res := &MobilityResult{Bands: [][2]float64{mobility.Pedestrian, mobility.Vehicle}}
	for _, e := range elections {
		res.Variants = append(res.Variants, e.name)
	}
	for _, band := range res.Bands {
		keep, _, err := replayRuns(master, fmt.Sprintf("mob-%v-%v", band[0], band[1]),
			opts, band, mobilityRange, opts.Minutes*60, elections)
		if err != nil {
			return nil, fmt.Errorf("mobility %w", err)
		}
		row := make([]float64, len(elections))
		for i := range elections {
			row[i] = keep[i].Mean()
		}
		res.Retention = append(res.Retention, row)
	}
	return res, nil
}

// election picks the cluster-heads of one sample: the paper's clustering
// over a metric under a ≺ variant, or max-min with d=2 when metric is nil.
type election struct {
	name   string
	metric metric.Metric
	order  cluster.Order
	fusion bool
}

// elect returns every node's head on g; prev, the previous sample's heads
// (nil at the first), seeds the clustering and defines incumbency.
func (e election) elect(g *topology.Graph, ids []int64, prev []int) ([]int, error) {
	if e.metric == nil {
		mm, err := cluster.MaxMin(g, ids, 2)
		if err != nil {
			return nil, err
		}
		return mm.Head, nil
	}
	a, err := cluster.Compute(g, cluster.Config{
		Values:   e.metric.Values(g),
		TieIDs:   ids,
		Order:    e.order,
		Fusion:   e.fusion,
		PrevHead: prev,
	})
	if err != nil {
		return nil, err
	}
	return a.Head, nil
}

// trace is one recorded walk: the unit-disk graph at every sampling
// instant (index 0 is the initial state) and the nodes' identifiers.
// Recording the walk once lets every election replay the exact same
// motion, which is what makes the comparisons paired.
type trace struct {
	graphs []*topology.Graph
	ids    []int64
}

// recordTrace deploys one network at opts.Intensity and range radio,
// walks it in band for seconds and captures a snapshot every sampling
// period.
func recordTrace(opts Options, band [2]float64, radio, seconds float64, src *rng.Source) (trace, error) {
	inst := deployRandom(opts.Intensity, radio, src)
	walker, err := mobility.NewRandomWalk(
		inst.pts, geom.UnitSquare(),
		mobility.SpeedToUnits(band[0]), mobility.SpeedToUnits(band[1]),
		src.Split("walk"))
	if err != nil {
		return trace{}, err
	}
	samples := int(seconds / mobility.SampleSec)
	tr := trace{graphs: make([]*topology.Graph, 0, samples+1), ids: inst.ids}
	// The grid index persists across samples: each mobility step only
	// repairs the edges of nodes that moved instead of rebuilding the
	// unit-disk graph. Samples retain a frozen Clone because Update
	// mutates the index's graph in place.
	idx := topology.NewGridIndexInRegion(walker.Positions(), radio, geom.UnitSquare())
	for s := 0; ; s++ {
		if err := idx.Update(walker.Positions()); err != nil {
			return trace{}, err
		}
		tr.graphs = append(tr.graphs, idx.Graph().Clone())
		if s == samples {
			return tr, nil
		}
		walker.Step(mobility.SampleSec)
	}
}

// retention replays a trace under one election. It returns the
// percentage of each sample's heads still heads at the next sample, and
// the first sample's cluster count (distinct heads).
func retention(tr trace, e election) (kept Welford, clusters int, err error) {
	prev, err := e.elect(tr.graphs[0], tr.ids, nil)
	if err != nil {
		return kept, 0, err
	}
	seen := make([]bool, len(prev))
	for _, h := range prev {
		if !seen[h] {
			seen[h] = true
			clusters++
		}
	}
	for _, g := range tr.graphs[1:] {
		next, err := e.elect(g, tr.ids, prev)
		if err != nil {
			return kept, 0, err
		}
		heads, same := 0, 0
		for u, h := range prev {
			if h == u {
				heads++
				if next[u] == u {
					same++
				}
			}
		}
		if heads > 0 {
			kept.Add(100 * float64(same) / float64(heads))
		}
		prev = next
	}
	return kept, clusters, nil
}

// replayRuns records opts.Runs walks (recordTrace), run i on the stream
// master.SplitN(label, i), and replays each under every election. It
// returns each election's head retention and first-sample cluster count
// over the runs.
func replayRuns(master *rng.Source, label string, opts Options, band [2]float64, radio, seconds float64, elections []election) (keep, clusters []Welford, err error) {
	keep = make([]Welford, len(elections))
	clusters = make([]Welford, len(elections))
	for run := 0; run < opts.Runs; run++ {
		tr, err := recordTrace(opts, band, radio, seconds, master.SplitN(label, run))
		if err != nil {
			return nil, nil, err
		}
		for i, e := range elections {
			w, c, err := retention(tr, e)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", e.name, err)
			}
			keep[i].Merge(w)
			clusters[i].Add(float64(c))
		}
	}
	return keep, clusters, nil
}

// Render formats the result like the paper's prose summary.
func (r *MobilityResult) Render() string {
	header := append([]string{"speed band (m/s)"}, r.Variants...)
	t := NewTable(fmt.Sprintf("Mobility: %% cluster-heads re-elected at each %gs sample", mobility.SampleSec), header...)
	for bi, band := range r.Bands {
		cells := []string{fmt.Sprintf("%.1f-%.1f", band[0], band[1])}
		for vi := range r.Variants {
			cells = append(cells, fmt.Sprintf("%.1f%%", r.Retention[bi][vi]))
		}
		t.AddRow(cells...)
	}
	return t.String()
}
