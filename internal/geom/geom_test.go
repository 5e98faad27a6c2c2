package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-12
}

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{0.5, 0.5}, Point{0.5, 0.5}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := dist(tt.p, tt.q); !almostEqual(got, tt.want) {
				t.Errorf("|%v - %v| = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p := Point{normalize(ax), normalize(ay)}
		q := Point{normalize(bx), normalize(by)}
		return almostEqual(dist(p, q), dist(q, p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist2MatchesDistSquared(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p := Point{normalize(ax), normalize(ay)}
		q := Point{normalize(bx), normalize(by)}
		d := math.Hypot(p.X-q.X, p.Y-q.Y)
		return math.Abs(p.Dist2(q)-d*d) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{normalize(ax), normalize(ay)}
		b := Point{normalize(bx), normalize(by)}
		c := Point{normalize(cx), normalize(cy)}
		return dist(a, c) <= dist(a, b)+dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// normalize maps arbitrary float64 inputs (including NaN/Inf from
// testing/quick) into [0,1] so geometric identities are numerically testable.
// dist is the Euclidean distance, as the unit-disk rule sees it.
func dist(p, q Point) float64 { return math.Sqrt(p.Dist2(q)) }

func normalize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Abs(math.Mod(x, 1))
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v, want (4,1)", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
}

func TestPointString(t *testing.T) {
	got := Point{0.12345, 0.5}.String()
	want := "(0.1235, 0.5000)" // %.4f rounds
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestUnitSquare(t *testing.T) {
	r := UnitSquare()
	if r.Width() != 1 || r.Height() != 1 || r.Area() != 1 {
		t.Errorf("UnitSquare dims: w=%v h=%v area=%v", r.Width(), r.Height(), r.Area())
	}
}

func TestRectContains(t *testing.T) {
	r := UnitSquare()
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"center", Point{0.5, 0.5}, true},
		{"corner min", Point{0, 0}, true},
		{"corner max", Point{1, 1}, true},
		{"left of", Point{-0.01, 0.5}, false},
		{"right of", Point{1.01, 0.5}, false},
		{"below", Point{0.5, -0.01}, false},
		{"above", Point{0.5, 1.01}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestRectClamp(t *testing.T) {
	r := UnitSquare()
	tests := []struct {
		p, want Point
	}{
		{Point{-1, 0.5}, Point{0, 0.5}},
		{Point{2, 0.5}, Point{1, 0.5}},
		{Point{0.5, -1}, Point{0.5, 0}},
		{Point{0.5, 2}, Point{0.5, 1}},
		{Point{0.3, 0.7}, Point{0.3, 0.7}},
		{Point{-1, 2}, Point{0, 1}},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.p); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestReflectInside(t *testing.T) {
	r := UnitSquare()
	p, dir := r.Reflect(Point{0.5, 0.5}, Point{1, 1})
	if p != (Point{0.5, 0.5}) || dir != (Point{1, 1}) {
		t.Errorf("Reflect of interior point changed it: p=%v dir=%v", p, dir)
	}
}

func TestReflectBounces(t *testing.T) {
	r := UnitSquare()
	tests := []struct {
		name          string
		p, dir        Point
		wantP, wantDr Point
	}{
		{"left wall", Point{-0.1, 0.5}, Point{-1, 0}, Point{0.1, 0.5}, Point{1, 0}},
		{"right wall", Point{1.1, 0.5}, Point{1, 0}, Point{0.9, 0.5}, Point{-1, 0}},
		{"floor", Point{0.5, -0.2}, Point{0, -1}, Point{0.5, 0.2}, Point{0, 1}},
		{"ceiling", Point{0.5, 1.2}, Point{0, 1}, Point{0.5, 0.8}, Point{0, -1}},
		{"corner", Point{-0.1, -0.1}, Point{-1, -1}, Point{0.1, 0.1}, Point{1, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, dir := r.Reflect(tt.p, tt.dir)
			if !almostEqual(p.X, tt.wantP.X) || !almostEqual(p.Y, tt.wantP.Y) {
				t.Errorf("point = %v, want %v", p, tt.wantP)
			}
			if dir != tt.wantDr {
				t.Errorf("dir = %v, want %v", dir, tt.wantDr)
			}
		})
	}
}

func TestReflectAlwaysInRegion(t *testing.T) {
	r := UnitSquare()
	f := func(px, py, dx, dy float64) bool {
		// Displacements up to 2x the region size, centered near the region.
		p := Point{4*normalize(px) - 1.5, 4*normalize(py) - 1.5}
		p2, _ := r.Reflect(p, Point{normalize(dx), normalize(dy)})
		return r.Contains(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
