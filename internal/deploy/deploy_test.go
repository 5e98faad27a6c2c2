package deploy

import (
	"fmt"
	"math"
	"testing"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
)

// validate checks internal consistency: matching lengths, unique IDs, and
// all points inside the region.
func validate(d *Deployment) error {
	if len(d.Points) != len(d.IDs) {
		return fmt.Errorf("deployment: %d points but %d ids", len(d.Points), len(d.IDs))
	}
	seen := make(map[int64]int, len(d.IDs))
	for i, id := range d.IDs {
		if j, dup := seen[id]; dup {
			return fmt.Errorf("deployment: duplicate id %d at nodes %d and %d", id, j, i)
		}
		seen[id] = i
	}
	for i, p := range d.Points {
		if !d.Region.Contains(p) {
			return fmt.Errorf("deployment: node %d at %v outside region", i, p)
		}
	}
	return nil
}

func TestUniformCountAndRegion(t *testing.T) {
	src := rng.New(1)
	d := Uniform(200, geom.UnitSquare(), IDRandom, src)
	if d.N() != 200 {
		t.Fatalf("N = %d", d.N())
	}
	if err := validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestUniformZero(t *testing.T) {
	d := Uniform(0, geom.UnitSquare(), IDRandom, rng.New(1))
	if d.N() != 0 {
		t.Fatal("expected empty deployment")
	}
	if err := validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonMeanCount(t *testing.T) {
	src := rng.New(7)
	const intensity = 1000.0
	total := 0
	const runs = 50
	for i := 0; i < runs; i++ {
		d := Poisson(intensity, geom.UnitSquare(), IDSequential, src)
		total += d.N()
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
		total += Poisson(1000, half, IDSequential, src).N()
	}
	mean := float64(total) / runs
	if math.Abs(mean-500) > 25 {
		t.Errorf("Poisson over half area: mean = %v, want ~500", mean)
	}
}

func TestGridLayout(t *testing.T) {
	d := Grid(4, 5, geom.UnitSquare(), IDSequential, rng.New(1))
	if d.N() != 20 {
		t.Fatalf("N = %d", d.N())
	}
	if err := validate(d); err != nil {
		t.Fatal(err)
	}
	// Pitch between horizontal neighbors is width/cols = 0.2.
	got := d.Points[1].X - d.Points[0].X
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("horizontal pitch = %v, want 0.2", got)
	}
	// Vertical pitch is height/rows = 0.25.
	got = d.Points[5].Y - d.Points[0].Y
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("vertical pitch = %v, want 0.25", got)
	}
	// Half-pitch margin.
	if math.Abs(d.Points[0].X-0.1) > 1e-12 || math.Abs(d.Points[0].Y-0.125) > 1e-12 {
		t.Errorf("first point = %v", d.Points[0])
	}
}

func TestGridClampsDegenerate(t *testing.T) {
	d := Grid(0, -3, geom.UnitSquare(), IDSequential, rng.New(1))
	if d.N() != 1 {
		t.Errorf("degenerate grid should have 1 node, got %d", d.N())
	}
}

func TestGridForIntensity1000(t *testing.T) {
	d := GridForIntensity(1000, geom.UnitSquare(), IDSequential, rng.New(1))
	if d.N() != 32*32 {
		t.Errorf("grid for lambda=1000 should be 32x32=1024 nodes, got %d", d.N())
	}
}

func TestIDRowMajorSpatiallyOrdered(t *testing.T) {
	src := rng.New(3)
	d := Grid(8, 8, geom.UnitSquare(), IDRowMajor, src)
	// Row-major: the node at grid (r, c) has id r*8+c since Grid generates
	// points bottom-to-top, left-to-right already.
	for i := range d.IDs {
		if d.IDs[i] != int64(i) {
			t.Fatalf("row-major ids on aligned grid should be identity, got IDs[%d]=%d", i, d.IDs[i])
		}
	}
}

func TestIDRowMajorOnRandomPoints(t *testing.T) {
	src := rng.New(4)
	d := Uniform(100, geom.UnitSquare(), IDRowMajor, src)
	if err := validate(d); err != nil {
		t.Fatal(err)
	}
	// The node with id 0 must be the one with minimal Y (ties by X).
	var min geom.Point = d.Points[0]
	var zero geom.Point
	for i, id := range d.IDs {
		p := d.Points[i]
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
	d := Uniform(50, geom.UnitSquare(), IDRandom, rng.New(5))
	seen := make([]bool, 50)
	for _, id := range d.IDs {
		if id < 0 || id >= 50 || seen[id] {
			t.Fatalf("bad id %d", id)
		}
		seen[id] = true
	}
}

func TestIDRandomShufflesSometimes(t *testing.T) {
	d := Uniform(50, geom.UnitSquare(), IDRandom, rng.New(6))
	fixed := 0
	for i, id := range d.IDs {
		if id == int64(i) {
			fixed++
		}
	}
	if fixed > 10 {
		t.Errorf("random id assignment looks like identity: %d fixed points", fixed)
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	d := &Deployment{
		Points: []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}},
		IDs:    []int64{7, 7},
		Region: geom.UnitSquare(),
	}
	if err := validate(d); err == nil {
		t.Error("duplicate ids not caught")
	}
}

func TestValidateCatchesLengthMismatch(t *testing.T) {
	d := &Deployment{
		Points: []geom.Point{{X: 0.1, Y: 0.1}},
		IDs:    []int64{1, 2},
		Region: geom.UnitSquare(),
	}
	if err := validate(d); err == nil {
		t.Error("length mismatch not caught")
	}
}

func TestValidateCatchesOutOfRegion(t *testing.T) {
	d := &Deployment{
		Points: []geom.Point{{X: 2, Y: 2}},
		IDs:    []int64{0},
		Region: geom.UnitSquare(),
	}
	if err := validate(d); err == nil {
		t.Error("out-of-region point not caught")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	a := Poisson(200, geom.UnitSquare(), IDRandom, rng.New(42))
	b := Poisson(200, geom.UnitSquare(), IDRandom, rng.New(42))
	if a.N() != b.N() {
		t.Fatal("same seed, different counts")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] || a.IDs[i] != b.IDs[i] {
			t.Fatal("same seed, different deployment")
		}
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
	if _, err := Hotspots(-1, 2, 0.05, geom.UnitSquare(), IDRandom, src); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := Hotspots(10, 0, 0.05, geom.UnitSquare(), IDRandom, src); err == nil {
		t.Error("zero hotspots accepted")
	}
	if _, err := Hotspots(10, 2, 0, geom.UnitSquare(), IDRandom, src); err == nil {
		t.Error("zero spread accepted")
	}
}

func TestHotspotsInRegionAndValid(t *testing.T) {
	d, err := Hotspots(300, 4, 0.04, geom.UnitSquare(), IDRandom, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 300 {
		t.Fatalf("N = %d", d.N())
	}
	if err := validate(d); err != nil {
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
	hot, err := Hotspots(200, 3, 0.02, geom.UnitSquare(), IDRandom, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	uni := Uniform(200, geom.UnitSquare(), IDRandom, rng.New(22))
	if nnMean(hot.Points) >= nnMean(uni.Points) {
		t.Error("hotspot deployment not more concentrated than uniform")
	}
}

func TestHotspotsDeterministic(t *testing.T) {
	a, err := Hotspots(50, 2, 0.05, geom.UnitSquare(), IDRandom, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hotspots(50, 2, 0.05, geom.UnitSquare(), IDRandom, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("hotspots not deterministic")
		}
	}
}
