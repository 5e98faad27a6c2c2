// Package mobility moves nodes around the deployment region, reproducing
// the paper's Section 5 mobility study: nodes move randomly at randomly
// chosen speeds for 15 minutes while the clustering is sampled every two
// seconds. The model is the classical random walk: random heading,
// billiard reflection at the borders, occasional re-orientation.
//
// The unit square maps to a 1 km x 1 km field, so a pedestrian speed of
// 1.6 m/s is 0.0016 units/s; see MetersPerUnit.
//
// The walk advances its position slice in place and Step allocates
// nothing, which pairs with topology.GridIndex: feeding Positions() to
// its incremental Update after each Step repairs the unit-disk graph for
// exactly the nodes that moved instead of rebuilding it — the intended
// hot loop for mobility experiments.
//
// It is the repository's one mobility model. internal/experiment records
// its mobility study and the metrics and orders ablations on it; the
// `selfstab-sim traffic -scenario mobility` command and the mobilecampus
// example move a Network with it through SetPositions.
package mobility

import (
	"errors"
	"fmt"
	"math"

	"selfstab/internal/geom"
	"selfstab/internal/rng"
)

// The Section 5 setup, each value declared once and marked as the
// paper's or as assumed where the paper gives none.
const (
	// MetersPerUnit is the physical scale of the unit square (assumed):
	// the paper's radio ranges (0.05-0.1 units) then correspond to
	// 50-100 m, typical 802.11 outdoor ranges, and its speed bands convert
	// naturally.
	MetersPerUnit = 1000.0
	// SampleSec is the sampling period, 2 s (paper).
	SampleSec = 2.0
	// TurnEverySec is the mean time between a node's re-orientations,
	// 30 s (assumed).
	TurnEverySec = 30.0
)

// The speed bands in m/s.
var (
	// Pedestrian is the pedestrian band, 0-1.6 m/s (paper).
	Pedestrian = [2]float64{0, 1.6}
	// Vehicle is the vehicle band, 0-10 m/s (paper).
	Vehicle = [2]float64{0, 10}
)

// SpeedToUnits converts meters/second into region units/second.
func SpeedToUnits(metersPerSecond float64) float64 {
	return metersPerSecond / MetersPerUnit
}

// RandomWalk moves every node along an individual heading at an individual
// speed drawn uniformly from [MinSpeed, MaxSpeed] (units/s). Nodes reflect
// off the region borders and re-draw heading and speed on a Poisson clock
// with mean TurnEverySec seconds.
type RandomWalk struct {
	region    geom.Rect
	pos       []geom.Point
	vel       []geom.Point // heading scaled by speed, units/s
	untilTurn []float64    // seconds until the next re-orientation
	minSpeed  float64
	maxSpeed  float64
	src       *rng.Source
}

// NewRandomWalk starts a walk at the given positions. minSpeed and maxSpeed
// are in units/s.
func NewRandomWalk(pts []geom.Point, region geom.Rect, minSpeed, maxSpeed float64, src *rng.Source) (*RandomWalk, error) {
	if minSpeed < 0 || maxSpeed < minSpeed {
		return nil, fmt.Errorf("mobility: invalid speed range [%v, %v]", minSpeed, maxSpeed)
	}
	if src == nil {
		return nil, errors.New("mobility: nil rng source")
	}
	w := &RandomWalk{
		region:    region,
		pos:       append([]geom.Point(nil), pts...),
		vel:       make([]geom.Point, len(pts)),
		untilTurn: make([]float64, len(pts)),
		minSpeed:  minSpeed,
		maxSpeed:  maxSpeed,
		src:       src,
	}
	for i := range w.vel {
		w.vel[i] = w.drawVelocity()
		w.untilTurn[i] = w.drawTurnDelay()
	}
	return w, nil
}

func (w *RandomWalk) drawVelocity() geom.Point {
	speed := w.minSpeed + float64(w.src.Float64()*(w.maxSpeed-w.minSpeed))
	theta := w.src.Float64() * 2 * math.Pi
	return geom.Point{X: speed * math.Cos(theta), Y: speed * math.Sin(theta)}
}

func (w *RandomWalk) drawTurnDelay() float64 {
	return w.src.ExpFloat64() * TurnEverySec
}

// Step advances the walk by dt seconds.
func (w *RandomWalk) Step(dt float64) {
	if dt <= 0 {
		return
	}
	for i := range w.pos {
		w.untilTurn[i] -= dt
		if w.untilTurn[i] <= 0 {
			w.vel[i] = w.drawVelocity()
			w.untilTurn[i] = w.drawTurnDelay()
		}
		next := w.pos[i].Add(w.vel[i].Scale(dt))
		w.pos[i], w.vel[i] = w.region.Reflect(next, w.vel[i])
	}
}

// Positions returns the current node positions. The returned slice is
// owned by the walk; callers must copy if they retain it.
func (w *RandomWalk) Positions() []geom.Point { return w.pos }
