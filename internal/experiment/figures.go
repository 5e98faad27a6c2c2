package experiment

import (
	"fmt"

	"selfstab/internal/cluster"
	"selfstab/internal/metric"
	"selfstab/internal/paperex"
	"selfstab/internal/rng"
	"selfstab/internal/viz"
)

// FigureResult is a rendered figure plus the summary line the paper's
// caption states.
type FigureResult struct {
	SVG     string
	ASCII   string
	Caption string
}

// FigureGrid regenerates Figures 2 and 3: the 32x32 adversarial grid at
// R = 0.05, clustered without the DAG (Figure 2: one giant cluster whose
// diameter is the network's) or with it (Figure 3: many small clusters).
func FigureGrid(useDag bool, seed int64, r float64) (*FigureResult, error) {
	if r <= 0 || r > 1 {
		return nil, fmt.Errorf("figure: invalid range %v", r)
	}
	src := rng.New(seed)
	inst := deployGrid(1000, r, src)
	a, err := clusterOnce(inst, useDag, src)
	if err != nil {
		return nil, err
	}
	svg, err := viz.SVG(inst.g, inst.pts, a, 800)
	if err != nil {
		return nil, err
	}
	txt, err := viz.ASCII(inst.g, inst.pts, a, 32, 64)
	if err != nil {
		return nil, err
	}
	s := a.ComputeStats(inst.g)
	caption := fmt.Sprintf(
		"grid %d nodes, R=%.2f, DAG=%v: %d clusters, mean head eccentricity %.1f, max tree length %d",
		inst.g.N(), r, useDag, s.NumClusters, s.MeanHeadEccentricity, s.MaxTreeLength)
	return &FigureResult{SVG: svg, ASCII: txt, Caption: caption}, nil
}

// Figure1 renders the paper's worked example with its two clusters.
func Figure1() (*FigureResult, error) {
	g := paperex.Graph()
	a, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: paperex.IDs(),
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		return nil, err
	}
	pts := paperex.Layout()
	svg, err := viz.SVG(g, pts, a, 400)
	if err != nil {
		return nil, err
	}
	txt, err := viz.ASCII(g, pts, a, 12, 24)
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		SVG:     svg,
		ASCII:   txt,
		Caption: "Figure 1 example: two clusters around heads h and j",
	}, nil
}
