package experiment

import (
	"fmt"

	"selfstab/internal/dag"
	"selfstab/internal/metric"
	"selfstab/internal/paperex"
	"selfstab/internal/rng"
	"selfstab/internal/stats"
)

// Table1Result is the illustrative example (Table 1 + Figure 1): per-node
// neighbor counts, link counts, densities and the final clustering.
type Table1Result struct {
	Names     []string
	Neighbors []int
	Links     []int
	Density   []float64
	Parent    []string
	Head      []string
}

// Table1 recomputes the paper's worked example.
func Table1() (*Table1Result, error) {
	g := paperex.Graph()
	a, err := clusterOnce(instance{g: g, ids: paperex.IDs()}, false, nil)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	for u := 0; u < g.N(); u++ {
		res.Names = append(res.Names, paperex.Names[u])
		res.Neighbors = append(res.Neighbors, g.Degree(u))
		res.Links = append(res.Links, g.ClosedNeighborhoodLinks(u))
		res.Density = append(res.Density, (metric.Density{}).ValueOf(g, u))
		res.Parent = append(res.Parent, paperex.Names[a.Parent[u]])
		res.Head = append(res.Head, paperex.Names[a.Head[u]])
	}
	return res, nil
}

// Render formats the result like the paper's Table 1 (plus the derived
// parent/head rows of the worked narrative).
func (r *Table1Result) Render() string {
	header := append([]string{"Nodes"}, r.Names...)
	t := stats.NewTable("Table 1: illustrative example (Figure 1 topology)", header...)
	row := func(label string, cell func(i int) string) {
		cells := make([]string, 0, len(r.Names)+1)
		cells = append(cells, label)
		for i := range r.Names {
			cells = append(cells, cell(i))
		}
		t.AddRow(cells...)
	}
	row("# Neighbors", func(i int) string { return fmt.Sprintf("%d", r.Neighbors[i]) })
	row("# Links", func(i int) string { return fmt.Sprintf("%d", r.Links[i]) })
	row("1-density", func(i int) string { return trimFloat(r.Density[i]) })
	row("F(p)", func(i int) string { return r.Parent[i] })
	row("H(p)", func(i int) string { return r.Head[i] })
	return t.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// Table3Result holds the mean number of steps to build the DAG per
// transmission range, on the grid and on random geometry (paper Table 3).
type Table3Result struct {
	Ranges      []float64
	GridSteps   []float64
	RandomSteps []float64
}

// Table3 measures DAG construction cost: the paper reports ~2 steps across
// the board, i.e. building the DAG is cheap.
func Table3(opts Options) (*Table3Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	master := rng.New(opts.Seed)
	res := &Table3Result{Ranges: opts.Ranges}
	for _, r := range opts.Ranges {
		var grid, random stats.Welford
		for run := 0; run < opts.Runs; run++ {
			src := master.SplitN(fmt.Sprintf("t3-%v", r), run)

			gi := deployGrid(opts.Intensity, r, src)
			gres, err := dag.Build(gi.g, gi.ids, dag.PaperGamma(gi.g), 10_000, src)
			if err != nil {
				return nil, fmt.Errorf("table3 grid r=%v: %w", r, err)
			}
			grid.Add(float64(gres.Steps))

			ri := deployRandom(opts.Intensity, r, src)
			rres, err := dag.Build(ri.g, ri.ids, dag.PaperGamma(ri.g), 10_000, src)
			if err != nil {
				return nil, fmt.Errorf("table3 random r=%v: %w", r, err)
			}
			random.Add(float64(rres.Steps))
		}
		res.GridSteps = append(res.GridSteps, grid.Mean())
		res.RandomSteps = append(res.RandomSteps, random.Mean())
	}
	return res, nil
}

// Render formats the result like the paper's Table 3.
func (r *Table3Result) Render() string {
	header := []string{"R"}
	for _, rr := range r.Ranges {
		header = append(header, fmt.Sprintf("%.2f", rr))
	}
	t := stats.NewTable("Table 3: mean steps to build the DAG (lambda=1000)", header...)
	grid := []string{"Grid"}
	random := []string{"Random geometry"}
	for i := range r.Ranges {
		grid = append(grid, fmt.Sprintf("%.2f", r.GridSteps[i]))
		random = append(random, fmt.Sprintf("%.2f", r.RandomSteps[i]))
	}
	t.AddRow(grid...)
	t.AddRow(random...)
	return t.String()
}

// ClusterRow is one (deployment, DAG on/off) cell of Tables 4 and 5.
type ClusterRow struct {
	Clusters     float64 // mean number of clusters
	Eccentricity float64 // mean cluster-head eccentricity e(H(u)/C)
	TreeLength   float64 // mean clusterization-tree length
	Rounds       float64 // mean synchronous rounds to the fixpoint
}

// TableClustersResult holds per-range with/without-DAG cluster features
// (the shape of the paper's Tables 4 and 5).
type TableClustersResult struct {
	Title   string
	Ranges  []float64
	WithDag []ClusterRow
	NoDag   []ClusterRow
}

// Table4 measures cluster features on the random geometric deployment
// (paper Table 4): with well-spread identifiers the DAG changes little.
func Table4(opts Options) (*TableClustersResult, error) {
	return tableClusters(opts, "Table 4: clusters features on a random geometric graph", deployRandom)
}

// Table5 measures cluster features on the adversarial grid (paper Table 5):
// without the DAG all nodes collapse into one network-diameter cluster;
// the DAG restores many small clusters and constant-time stabilization.
func Table5(opts Options) (*TableClustersResult, error) {
	return tableClusters(opts, "Table 5: clusters characteristics on a grid (row-major ids)", deployGrid)
}

func tableClusters(opts Options, title string, deployer func(float64, float64, *rng.Source) instance) (*TableClustersResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	master := rng.New(opts.Seed)
	res := &TableClustersResult{Title: title, Ranges: opts.Ranges}
	for _, r := range opts.Ranges {
		var acc [2][4]stats.Welford // [dag][clusters, ecc, tree, rounds]
		for run := 0; run < opts.Runs; run++ {
			src := master.SplitN(fmt.Sprintf("tc-%v", r), run)
			inst := deployer(opts.Intensity, r, src)
			for di, useDag := range []bool{true, false} {
				a, err := clusterOnce(inst, useDag, src)
				if err != nil {
					return nil, fmt.Errorf("%s r=%v dag=%v: %w", title, r, useDag, err)
				}
				s := a.ComputeStats(inst.g)
				acc[di][0].Add(float64(s.NumClusters))
				acc[di][1].Add(s.MeanHeadEccentricity)
				acc[di][2].Add(s.MeanTreeLength)
				acc[di][3].Add(float64(a.Rounds))
			}
		}
		res.WithDag = append(res.WithDag, ClusterRow{
			Clusters:     acc[0][0].Mean(),
			Eccentricity: acc[0][1].Mean(),
			TreeLength:   acc[0][2].Mean(),
			Rounds:       acc[0][3].Mean(),
		})
		res.NoDag = append(res.NoDag, ClusterRow{
			Clusters:     acc[1][0].Mean(),
			Eccentricity: acc[1][1].Mean(),
			TreeLength:   acc[1][2].Mean(),
			Rounds:       acc[1][3].Mean(),
		})
	}
	return res, nil
}

// Render formats the result like the paper's Tables 4/5: one column pair
// (with/without DAG) per range.
func (r *TableClustersResult) Render() string {
	header := []string{""}
	for _, rr := range r.Ranges {
		header = append(header,
			fmt.Sprintf("R=%.2f DAG", rr),
			fmt.Sprintf("R=%.2f noDAG", rr))
	}
	t := stats.NewTable(r.Title, header...)
	row := func(label string, pick func(ClusterRow) float64) {
		cells := []string{label}
		for i := range r.Ranges {
			cells = append(cells,
				fmt.Sprintf("%.1f", pick(r.WithDag[i])),
				fmt.Sprintf("%.1f", pick(r.NoDag[i])))
		}
		t.AddRow(cells...)
	}
	row("# clusters", func(c ClusterRow) float64 { return c.Clusters })
	row("e(H(u)/C(u))", func(c ClusterRow) float64 { return c.Eccentricity })
	row("avg tree length", func(c ClusterRow) float64 { return c.TreeLength })
	row("fixpoint rounds", func(c ClusterRow) float64 { return c.Rounds })
	return t.String()
}
