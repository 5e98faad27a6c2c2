package deploy

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
)

// validate checks a deployment's internal consistency: matching lengths,
// unique IDs, and all points inside the region.
func validate(pts []geom.Point, ids []int64, region geom.Rect) error {
	if len(pts) != len(ids) {
		return fmt.Errorf("deployment: %d points but %d ids", len(pts), len(ids))
	}
	seen := make(map[int64]int, len(ids))
	for i, id := range ids {
		if j, dup := seen[id]; dup {
			return fmt.Errorf("deployment: duplicate id %d at nodes %d and %d", id, j, i)
		}
		seen[id] = i
	}
	for i, p := range pts {
		if !region.Contains(p) {
			return fmt.Errorf("deployment: node %d at %v outside region", i, p)
		}
	}
	return nil
}

func TestUniformCountAndRegion(t *testing.T) {
	src := rng.New(1)
	pts := Uniform(200, geom.UnitSquare(), src)
	if len(pts) != 200 {
		t.Fatalf("N = %d", len(pts))
	}
	if err := validate(pts, AssignIDs(pts, IDRandom, src), geom.UnitSquare()); err != nil {
		t.Fatal(err)
	}
}

func TestUniformZero(t *testing.T) {
	src := rng.New(1)
	pts := Uniform(0, geom.UnitSquare(), src)
	if len(pts) != 0 {
		t.Fatal("expected empty deployment")
	}
	if err := validate(pts, AssignIDs(pts, IDRandom, src), geom.UnitSquare()); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonMeanCount(t *testing.T) {
	src := rng.New(7)
	const intensity = 1000.0
	total := 0
	const runs = 50
	for i := 0; i < runs; i++ {
		total += len(Poisson(intensity, geom.UnitSquare(), src))
	}
	mean := float64(total) / runs
	if math.Abs(mean-intensity) > 25 {
		t.Errorf("Poisson(1000) mean count = %v", mean)
	}
}

func TestPoissonScalesWithArea(t *testing.T) {
	src := rng.New(9)
	half := geom.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 1}
	total := 0
	const runs = 50
	for i := 0; i < runs; i++ {
		total += len(Poisson(1000, half, src))
	}
	mean := float64(total) / runs
	if math.Abs(mean-500) > 25 {
		t.Errorf("Poisson over half area: mean = %v, want ~500", mean)
	}
}

func TestGridLayout(t *testing.T) {
	pts := Grid(4, 5, geom.UnitSquare())
	if len(pts) != 20 {
		t.Fatalf("N = %d", len(pts))
	}
	if err := validate(pts, AssignIDs(pts, IDSequential, nil), geom.UnitSquare()); err != nil {
		t.Fatal(err)
	}
	// Pitch between horizontal neighbors is width/cols = 0.2.
	got := pts[1].X - pts[0].X
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("horizontal pitch = %v, want 0.2", got)
	}
	// Vertical pitch is height/rows = 0.25.
	got = pts[5].Y - pts[0].Y
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("vertical pitch = %v, want 0.25", got)
	}
	// Half-pitch margin.
	if math.Abs(pts[0].X-0.1) > 1e-12 || math.Abs(pts[0].Y-0.125) > 1e-12 {
		t.Errorf("first point = %v", pts[0])
	}
}

func TestGridClampsDegenerate(t *testing.T) {
	if n := len(Grid(0, -3, geom.UnitSquare())); n != 1 {
		t.Errorf("degenerate grid should have 1 node, got %d", n)
	}
}

func TestGridForIntensity1000(t *testing.T) {
	if n := len(GridForIntensity(1000, geom.UnitSquare())); n != 32*32 {
		t.Errorf("grid for lambda=1000 should be 32x32=1024 nodes, got %d", n)
	}
}

func TestIDRowMajorSpatiallyOrdered(t *testing.T) {
	ids := AssignIDs(Grid(8, 8, geom.UnitSquare()), IDRowMajor, nil)
	// Row-major: the node at grid (r, c) has id r*8+c since Grid generates
	// points bottom-to-top, left-to-right already.
	for i := range ids {
		if ids[i] != int64(i) {
			t.Fatalf("row-major ids on aligned grid should be identity, got IDs[%d]=%d", i, ids[i])
		}
	}
}

func TestIDRowMajorOnRandomPoints(t *testing.T) {
	pts := Uniform(100, geom.UnitSquare(), rng.New(4))
	ids := AssignIDs(pts, IDRowMajor, nil)
	if err := validate(pts, ids, geom.UnitSquare()); err != nil {
		t.Fatal(err)
	}
	// The node with id 0 must be the one with minimal Y (ties by X).
	var min geom.Point = pts[0]
	var zero geom.Point
	for i, id := range ids {
		p := pts[i]
		if p.Y < min.Y || (p.Y == min.Y && p.X < min.X) {
			min = p
		}
		if id == 0 {
			zero = p
		}
	}
	if zero != min {
		t.Errorf("id 0 at %v, but bottom-most node is %v", zero, min)
	}
}

func TestIDRandomIsPermutation(t *testing.T) {
	src := rng.New(5)
	seen := make([]bool, 50)
	for _, id := range AssignIDs(Uniform(50, geom.UnitSquare(), src), IDRandom, src) {
		if id < 0 || id >= 50 || seen[id] {
			t.Fatalf("bad id %d", id)
		}
		seen[id] = true
	}
}

func TestIDRandomShufflesSometimes(t *testing.T) {
	src := rng.New(6)
	fixed := 0
	for i, id := range AssignIDs(Uniform(50, geom.UnitSquare(), src), IDRandom, src) {
		if id == int64(i) {
			fixed++
		}
	}
	if fixed > 10 {
		t.Errorf("random id assignment looks like identity: %d fixed points", fixed)
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	if err := validate([]geom.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, []int64{7, 7}, geom.UnitSquare()); err == nil {
		t.Error("duplicate ids not caught")
	}
}

func TestValidateCatchesLengthMismatch(t *testing.T) {
	if err := validate([]geom.Point{{X: 0.1, Y: 0.1}}, []int64{1, 2}, geom.UnitSquare()); err == nil {
		t.Error("length mismatch not caught")
	}
}

func TestValidateCatchesOutOfRegion(t *testing.T) {
	if err := validate([]geom.Point{{X: 2, Y: 2}}, []int64{0}, geom.UnitSquare()); err == nil {
		t.Error("out-of-region point not caught")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	draw := func() ([]geom.Point, []int64) {
		src := rng.New(42)
		pts := Poisson(200, geom.UnitSquare(), src)
		return pts, AssignIDs(pts, IDRandom, src)
	}
	aPts, aIDs := draw()
	bPts, bIDs := draw()
	if !slices.Equal(aPts, bPts) || !slices.Equal(aIDs, bIDs) {
		t.Fatal("same seed, different deployment")
	}
}

func TestIDStrategyString(t *testing.T) {
	tests := []struct {
		s    IDStrategy
		want string
	}{
		{IDRandom, "random-ids"},
		{IDRowMajor, "row-major-ids"},
		{IDSequential, "sequential-ids"},
		{IDStrategy(99), "IDStrategy(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestHotspotsValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := Hotspots(-1, 2, 0.05, geom.UnitSquare(), src); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := Hotspots(10, 0, 0.05, geom.UnitSquare(), src); err == nil {
		t.Error("zero hotspots accepted")
	}
	if _, err := Hotspots(10, 2, 0, geom.UnitSquare(), src); err == nil {
		t.Error("zero spread accepted")
	}
}

func TestHotspotsInRegionAndValid(t *testing.T) {
	src := rng.New(21)
	pts, err := Hotspots(300, 4, 0.04, geom.UnitSquare(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 300 {
		t.Fatalf("N = %d", len(pts))
	}
	if err := validate(pts, AssignIDs(pts, IDRandom, src), geom.UnitSquare()); err != nil {
		t.Fatal(err)
	}
}

func TestHotspotsAreConcentrated(t *testing.T) {
	// With a tiny spread, the mean nearest-neighbor distance must be far
	// below the uniform deployment's.
	nnMean := func(pts []geom.Point) float64 {
		total := 0.0
		for i, p := range pts {
			best := 10.0
			for j, q := range pts {
				if i != j {
					if dd := math.Sqrt(p.Dist2(q)); dd < best {
						best = dd
					}
				}
			}
			total += best
		}
		return total / float64(len(pts))
	}
	hot, err := Hotspots(200, 3, 0.02, geom.UnitSquare(), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	uni := Uniform(200, geom.UnitSquare(), rng.New(22))
	if nnMean(hot) >= nnMean(uni) {
		t.Error("hotspot deployment not more concentrated than uniform")
	}
}

func TestHotspotsDeterministic(t *testing.T) {
	a, err := Hotspots(50, 2, 0.05, geom.UnitSquare(), rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hotspots(50, 2, 0.05, geom.UnitSquare(), rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("hotspots not deterministic")
	}
}
