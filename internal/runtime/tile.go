package runtime

import "fmt"

// Spatial tiling: every node is owned by exactly one tile (tileOf, a pure
// function of position), and a step's worklist expansion is sharded by
// that ownership (see step.go). The protocol is local — a node's cache can
// only change when a radio neighbor broadcast new content — so cross-tile
// influence is bounded by the unit-disk radius.

// SetTiles installs a spatial tiling: tiles is the tile count, assign maps
// a node index to its owning tile (typically topology.Tiling.TileOf of the
// node's position; results outside [0, tiles) are clamped). tiles <= 1
// removes the tiling.
// The assignment function is retained: Append uses it to place arrivals
// and Retile to re-place movers. Call only between steps.
func (e *Engine) SetTiles(tiles int, assign func(i int) int) error {
	if tiles <= 1 {
		e.setTileCount(1)
		e.tileOf = nil
		e.tileAssign = nil
		return nil
	}
	if assign == nil {
		return fmt.Errorf("runtime: %d tiles need an assignment function", tiles)
	}
	e.setTileCount(tiles)
	e.tileAssign = assign
	e.tileOf = make([]int32, len(e.nodes))
	for i := range e.nodes {
		e.tileOf[i] = e.clampTile(assign(i))
	}
	return nil
}

// setTileCount sizes the per-tile step scratch for T tiles.
func (e *Engine) setTileCount(T int) {
	e.tiles = T
	e.tileExec = make([][]int32, T)
	e.tileSeeds = make([]int, T)
	e.tileOutbox = make([][]int32, T*T)
}

// Tiles returns the current tile count (1 when untiled).
func (e *Engine) Tiles() int { return e.tiles }

// Retile recomputes node i's tile ownership from the assignment function —
// call it whenever the node's position changed (topology.GridIndex fires
// its move hook for exactly that set). Out-of-range indices are ignored, a
// no-op without a tiling. Sequential only: call between steps or from a
// pre-step hook, like Activate.
func (e *Engine) Retile(i int) {
	if e.tiles <= 1 || i < 0 || i >= len(e.tileOf) {
		return
	}
	e.tileOf[i] = e.clampTile(e.tileAssign(i))
}

func (e *Engine) clampTile(t int) int32 {
	if t < 0 {
		return 0
	}
	if t >= e.tiles {
		return int32(e.tiles - 1)
	}
	return int32(t)
}

// appendTile grows the tile-ownership map for a node just appended at
// index i (no-op without a tiling).
func (e *Engine) appendTile(i int) {
	if e.tiles <= 1 {
		return
	}
	e.tileOf = append(e.tileOf, e.clampTile(e.tileAssign(i)))
}

// compactTiles applies the dead-slot recycling remap to the ownership map
// (no-op without a tiling). Survivors keep their tile: ownership is a
// function of position, and Compact moves positions with their slots.
func (e *Engine) compactTiles(remap []int32, newN int) {
	if e.tiles <= 1 {
		return
	}
	for old, nw := range remap {
		if nw >= 0 {
			e.tileOf[nw] = e.tileOf[old]
		}
	}
	e.tileOf = e.tileOf[:newN]
}
