package mobility

import (
	"math"
	"testing"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
)

func startPositions(n int, seed int64) []geom.Point {
	src := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
	}
	return pts
}

func TestSpeedToUnits(t *testing.T) {
	if got := SpeedToUnits(1600); got != 1.6 {
		t.Errorf("SpeedToUnits(1600) = %v", got)
	}
	if got := SpeedToUnits(1.6); math.Abs(got-0.0016) > 1e-15 {
		t.Errorf("pedestrian speed = %v units/s", got)
	}
}

func TestRandomWalkValidation(t *testing.T) {
	pts := startPositions(5, 1)
	r := geom.UnitSquare()
	if _, err := NewRandomWalk(pts, r, -1, 1, rng.New(1)); err == nil {
		t.Error("negative min speed accepted")
	}
	if _, err := NewRandomWalk(pts, r, 2, 1, rng.New(1)); err == nil {
		t.Error("inverted speed range accepted")
	}
	if _, err := NewRandomWalk(pts, r, 0, 1, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestRandomWalkStaysInRegion(t *testing.T) {
	pts := startPositions(50, 2)
	r := geom.UnitSquare()
	w, err := NewRandomWalk(pts, r, 0, SpeedToUnits(10), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		w.Step(2)
		for i, p := range w.Positions() {
			if !r.Contains(p) {
				t.Fatalf("step %d: node %d escaped to %v", step, i, p)
			}
		}
	}
}

func TestRandomWalkZeroSpeedIsStationary(t *testing.T) {
	pts := startPositions(10, 4)
	w, err := NewRandomWalk(pts, geom.UnitSquare(), 0, 0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	w.Step(100)
	for i, p := range w.Positions() {
		if p != pts[i] {
			t.Errorf("node %d moved at speed 0: %v -> %v", i, pts[i], p)
		}
	}
}

func TestRandomWalkDisplacementScalesWithSpeed(t *testing.T) {
	displacement := func(speed float64) float64 {
		pts := startPositions(100, 6)
		w, err := NewRandomWalk(pts, geom.UnitSquare(), speed, speed, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		w.Step(2)
		total := 0.0
		for i, p := range w.Positions() {
			total += math.Sqrt(p.Dist2(pts[i]))
		}
		return total / 100
	}
	slow := displacement(SpeedToUnits(1.6))
	fast := displacement(SpeedToUnits(10))
	// Over 2 seconds with no border effects to speak of, displacement is
	// speed * 2.
	if math.Abs(slow-0.0032) > 0.0005 {
		t.Errorf("pedestrian displacement = %v, want ~0.0032", slow)
	}
	if fast < 5*slow {
		t.Errorf("vehicle displacement %v not ~6x pedestrian %v", fast, slow)
	}
}

func TestRandomWalkZeroDtNoop(t *testing.T) {
	pts := startPositions(5, 8)
	w, err := NewRandomWalk(pts, geom.UnitSquare(), 0.1, 0.1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	w.Step(0)
	w.Step(-1)
	for i, p := range w.Positions() {
		if p != pts[i] {
			t.Error("Step(<=0) moved nodes")
			_ = i
			break
		}
	}
}

func TestRandomWalkDeterminism(t *testing.T) {
	pts := startPositions(20, 10)
	a, err := NewRandomWalk(pts, geom.UnitSquare(), 0, 0.01, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomWalk(pts, geom.UnitSquare(), 0, 0.01, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 50; s++ {
		a.Step(2)
		b.Step(2)
	}
	for i := range pts {
		if a.Positions()[i] != b.Positions()[i] {
			t.Fatal("same-seed walks diverged")
		}
	}
}
