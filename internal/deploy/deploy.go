// Package deploy generates node deployments for the experiments: Poisson
// point processes and regular grids in the unit square (the paper's Section
// 5 workloads), a fixed-size uniform variant, and identifier-assignment
// strategies including the adversarial row-major numbering that defeats
// identifier-based tie-breaking (Table 5).
package deploy

import (
	"fmt"
	"math"
	"sort"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
)

// Deployment is a set of node positions together with their application
// identifiers. Identifiers are unique but otherwise arbitrary; the paper's
// adversarial scenario depends on their spatial correlation.
type Deployment struct {
	Points []geom.Point
	IDs    []int64
	Region geom.Rect
}

// N returns the number of deployed nodes.
func (d *Deployment) N() int { return len(d.Points) }

// IDStrategy decides how identifiers are assigned to positions.
type IDStrategy int

const (
	// IDRandom permutes identifiers uniformly at random — the paper's
	// "homogeneously and randomly distributed" identifier case.
	IDRandom IDStrategy = iota + 1
	// IDRowMajor numbers nodes left-to-right, bottom-to-top, the
	// adversarial distribution of the paper's grid scenario (Table 5):
	// identifiers are maximally spatially correlated.
	IDRowMajor
	// IDSequential numbers nodes in generation order.
	IDSequential
)

// String implements fmt.Stringer for experiment labels.
func (s IDStrategy) String() string {
	switch s {
	case IDRandom:
		return "random-ids"
	case IDRowMajor:
		return "row-major-ids"
	case IDSequential:
		return "sequential-ids"
	default:
		return fmt.Sprintf("IDStrategy(%d)", int(s))
	}
}

// AssignIDs returns identifiers for nodes at pts under strategy s. Only
// IDRandom draws from src (one permutation); the others ignore it.
func AssignIDs(pts []geom.Point, s IDStrategy, src *rng.Source) []int64 {
	n := len(pts)
	ids := make([]int64, n)
	switch s {
	case IDRandom:
		for i, p := range src.Perm(n) {
			ids[i] = int64(p)
		}
	case IDRowMajor:
		// Sort node indices by (Y, X) and hand out increasing ids: lowest
		// ids bottom-left, highest top-right.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			pa, pb := pts[order[a]], pts[order[b]]
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return pa.X < pb.X
		})
		for rank, idx := range order {
			ids[idx] = int64(rank)
		}
	default: // IDSequential and anything unknown
		for i := range ids {
			ids[i] = int64(i)
		}
	}
	return ids
}

// Poisson deploys a homogeneous Poisson point process of the given
// intensity (expected points per unit area) in region. The realized count is
// Poisson-distributed; positions are uniform. This is the paper's random
// geometry workload (lambda in {500..2000}, typically 1000).
func Poisson(intensity float64, region geom.Rect, ids IDStrategy, src *rng.Source) *Deployment {
	n := src.Poisson(intensity * region.Area())
	return Uniform(n, region, ids, src)
}

// Uniform deploys exactly n uniformly random points in region.
func Uniform(n int, region geom.Rect, ids IDStrategy, src *rng.Source) *Deployment {
	d := &Deployment{
		Points: make([]geom.Point, n),
		Region: region,
	}
	for i := range d.Points {
		d.Points[i] = geom.Point{
			X: region.MinX + src.Float64()*region.Width(),
			Y: region.MinY + src.Float64()*region.Height(),
		}
	}
	d.IDs = AssignIDs(d.Points, ids, src)
	return d
}

// Grid deploys a rows x cols lattice filling region, with a half-pitch
// margin on each side so the pitch is uniform (pitch = width/cols). With
// rows = cols = 32 in the unit square this is the paper's grid scenario:
// 1024 nodes (~lambda = 1000) at pitch ~0.031, below every studied radio
// range.
func Grid(rows, cols int, region geom.Rect, ids IDStrategy, src *rng.Source) *Deployment {
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	d := &Deployment{
		Points: make([]geom.Point, 0, rows*cols),
		Region: region,
	}
	px := region.Width() / float64(cols)
	py := region.Height() / float64(rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			d.Points = append(d.Points, geom.Point{
				X: region.MinX + (float64(c)+0.5)*px,
				Y: region.MinY + (float64(r)+0.5)*py,
			})
		}
	}
	d.IDs = AssignIDs(d.Points, ids, src)
	return d
}

// GridForIntensity returns the square grid whose node count best
// approximates a Poisson intensity over the unit square: side =
// round(sqrt(intensity)). The paper's "grid with lambda equal to 1000" maps
// to a 32x32 grid.
func GridForIntensity(intensity float64, region geom.Rect, ids IDStrategy, src *rng.Source) *Deployment {
	side := int(math.Round(math.Sqrt(intensity)))
	if side < 1 {
		side = 1
	}
	return Grid(side, side, region, ids, src)
}

// Hotspots deploys n nodes around k Gaussian concentration points — the
// heterogeneous "disaster area" scenario of the paper's introduction
// (responders cluster around incident sites). spread is the Gaussian
// standard deviation as a fraction of the region extent; points are
// clamped to the region. The density metric is designed to put one
// cluster-head per hotspot instead of splitting co-located groups.
func Hotspots(n, k int, spread float64, region geom.Rect, ids IDStrategy, src *rng.Source) (*Deployment, error) {
	if n < 0 {
		return nil, fmt.Errorf("deploy: negative node count %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("deploy: need at least one hotspot, got %d", k)
	}
	if spread <= 0 {
		return nil, fmt.Errorf("deploy: spread must be positive, got %v", spread)
	}
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{
			X: region.MinX + src.Float64()*region.Width(),
			Y: region.MinY + src.Float64()*region.Height(),
		}
	}
	d := &Deployment{
		Points: make([]geom.Point, n),
		Region: region,
	}
	sx := spread * region.Width()
	sy := spread * region.Height()
	for i := range d.Points {
		c := centers[src.Intn(k)]
		d.Points[i] = region.Clamp(geom.Point{
			X: c.X + src.NormFloat64()*sx,
			Y: c.Y + src.NormFloat64()*sy,
		})
	}
	d.IDs = AssignIDs(d.Points, ids, src)
	return d, nil
}
