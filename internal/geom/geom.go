// Package geom provides the minimal planar geometry used by the wireless
// network simulator: points in the unit square, Euclidean distances, and
// axis-aligned rectangles for deployment regions.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. The paper deploys all nodes in a
// 1x1 square, but nothing in this package assumes unit coordinates.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on the hot path of unit-disk neighborhood construction.
// The conversions round each product, so no architecture fuses the sum
// into a multiply-add and a pair near the range boundary is decided the
// same way everywhere (scripts/portable.sh checks every such site).
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return float64(dx*dx) + float64(dy*dy)
}

// Add returns the translation of p by q.
func (p Point) Add(q Point) Point {
	return Point{X: p.X + q.X, Y: p.Y + q.Y}
}

// Scale returns p scaled by k, each product rounded so that p.Add(v.Scale(k))
// is never fused into a multiply-add.
func (p Point) Scale(k float64) Point {
	return Point{X: float64(p.X * k), Y: float64(p.Y * k)}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// UnitSquare is the 1x1 deployment region used throughout the paper's
// evaluation section.
func UnitSquare() Rect {
	return Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (borders included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// Reflect bounces p off the borders of r, reflecting the direction vector
// dir in place. It is the standard "billiard" boundary handling used by the
// random-walk mobility model: a node that would leave the region is mirrored
// back inside and its heading is flipped on the offending axis.
//
// Reflect assumes the displacement is smaller than the rectangle extent; for
// the paper's speeds (<= 10 m/s scaled into the unit square) this holds.
func (r Rect) Reflect(p Point, dir Point) (Point, Point) {
	if p.X < r.MinX {
		p.X = 2*r.MinX - p.X
		dir.X = -dir.X
	} else if p.X > r.MaxX {
		p.X = 2*r.MaxX - p.X
		dir.X = -dir.X
	}
	if p.Y < r.MinY {
		p.Y = 2*r.MinY - p.Y
		dir.Y = -dir.Y
	} else if p.Y > r.MaxY {
		p.Y = 2*r.MaxY - p.Y
		dir.Y = -dir.Y
	}
	// A very large step can still be outside after one reflection; clamp as
	// a last resort so callers always receive an in-region point.
	if !r.Contains(p) {
		p = r.Clamp(p)
	}
	return p, dir
}
