package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"selfstab/internal/obs"
)

// Tiled (sharded) frontier stepping.
//
// The protocol is local: a node's guards read only its own cache, and its
// cache can only change when a radio neighbor broadcast new content — so a
// spatial partition of the deployment region into tiles bounds cross-tile
// influence by the unit-disk radius. The tiled step engine exploits that:
// every node is owned by exactly one tile (tileOf, a pure function of
// position), each tile owns its slice of the frontier worklist, and the
// step's phases run tile-parallel with barriers between them:
//
//  1. split     (sequential) — the global pend worklist is dealt out to
//     per-tile exec lists, preserving activation order within each tile;
//  2. expansion (tile-parallel) — each tile walks its seeds and queues the
//     alive radio neighborhoods of nodes about to broadcast changed
//     content: same-tile neighbors append to the tile's own exec list,
//     cross-tile neighbors go into a per-(source, dest) halo outbox —
//     never touching another tile's flags, so there are no data races and
//     no locks;
//  3. halo merge (tile-parallel over destinations) — each tile drains the
//     outboxes addressed to it in source-tile order, deduplicating against
//     its own exec flags. Because radio reach is one unit-disk radius,
//     only boundary nodes ever cross, so halo traffic is O(perimeter);
//  4. frame fill, then ingest+guards (tile-parallel, barriered) — the
//     same per-node work as the flat frontier path; the barrier between
//     the two phases is what lets a node read any neighbor's freshly
//     filled frame, including across tiles;
//  5. re-arm    (sequential, tile order) — survivors rejoin the global
//     pend worklist.
//
// Determinism contract: per-node work is independent and writes only the
// node's own state; nothing on this path consumes rng (frontier stepping
// already requires a lossless medium and a synchronous daemon); and every
// cross-tile merge drains in fixed tile order. The execution is therefore
// bit-identical to the flat frontier path — and hence to the dense scan —
// at any tile count and any worker count, pinned by the mixed-trace
// oracles in tile_test.go.

// SetTiles installs a spatial tiling: tiles is the tile count, assign maps
// a node index to its owning tile (typically topology.Tiling.TileOf of the
// node's position; results outside [0, tiles) are clamped). tiles <= 1
// removes the tiling and returns the engine to flat frontier stepping.
// The assignment function is retained: Append uses it to place arrivals
// and Retile to re-place movers. Call only between steps.
func (e *Engine) SetTiles(tiles int, assign func(i int) int) error {
	if tiles <= 1 {
		e.tiles = 1
		e.tileOf = nil
		e.tileAssign = nil
		e.tileExec = nil
		e.tileSeeds = nil
		e.tileOutbox = nil
		e.tileChanged = nil
		return nil
	}
	if assign == nil {
		return fmt.Errorf("runtime: %d tiles need an assignment function", tiles)
	}
	e.tiles = tiles
	e.tileAssign = assign
	e.tileOf = make([]int32, len(e.nodes))
	for i := range e.nodes {
		e.tileOf[i] = e.clampTile(assign(i))
	}
	e.tileExec = make([][]int32, tiles)
	e.tileSeeds = make([]int, tiles)
	e.tileOutbox = make([][]int32, tiles*tiles)
	e.tileChanged = make([]bool, tiles)
	return nil
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

// forEachTile runs fn(t) for every tile, on up to workers goroutines (one
// tile is never split across workers — tile state is single-writer by
// construction). With one worker, or a single tile, it runs inline.
func (e *Engine) forEachTile(fn func(t int)) {
	T := e.tiles
	workers := e.workers
	if workers == 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > T {
		workers = T
	}
	if workers <= 1 {
		for t := 0; t < T; t++ {
			fn(t)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= T {
					return
				}
				fn(t)
			}
		}()
	}
	wg.Wait()
}

// mergeHalos drains every halo outbox addressed to destination tile d in
// source-tile order — fixed order, so the resulting exec lists are
// reproducible run to run — deduplicating against d's own flags (a
// boundary node may be queued by several source tiles, or already be on
// its own tile's list). Tile-parallel over destinations: each tile
// writes only its own execFlag entries, so the phase is race-free.
//
//selfstab:hotpath
func (e *Engine) mergeHalos(d int) {
	probe := e.probe
	if probe != nil {
		probe.TileSpanBegin(obs.PhaseHalo, d)
	}
	T := e.tiles
	for s := 0; s < T; s++ {
		for _, w := range e.tileOutbox[s*T+d] {
			if !e.execFlag[w] {
				e.execFlag[w] = true
				e.tileExec[d] = append(e.tileExec[d], w)
			}
		}
	}
	if probe != nil {
		probe.TileSpanEnd(obs.PhaseHalo, d)
	}
}

// stepTiled is stepSparse's body under a tiling: identical semantics and
// bookkeeping, with the worklist sharded by tile ownership and every phase
// tile-parallel. The caller (stepSparse) has already run the disruption
// close and the pre-step hook.
func (e *Engine) stepTiled() error {
	T := e.tiles
	probe := e.probe

	// Split (sequential): deal the global worklist out to the owning
	// tiles' exec lists. pend is deduplicated (pendFlag), so execFlag can
	// be set unconditionally.
	for t := 0; t < T; t++ {
		e.tileExec[t] = e.tileExec[t][:0]
	}
	for i := range e.tileOutbox {
		e.tileOutbox[i] = e.tileOutbox[i][:0]
	}
	for _, v := range e.pend {
		t := e.tileOf[v]
		e.execFlag[v] = true
		e.tileExec[t] = append(e.tileExec[t], v)
	}
	for t := 0; t < T; t++ {
		e.tileSeeds[t] = len(e.tileExec[t])
	}
	for _, v := range e.pend {
		e.pendFlag[v] = false
	}
	e.pend = e.pend[:0]

	if probe != nil {
		probe.PhaseBegin(obs.PhaseHalo)
	}
	// Expansion (tile-parallel): each tile pulls in the alive radio
	// neighborhoods of its seeds about to broadcast changed content.
	// Same-tile neighbors join the tile's own exec list; cross-tile
	// neighbors are staged in the per-(source, dest) halo outbox — a
	// tile's execFlag entries are written only by the tile that owns the
	// node, so the phase is race-free without locks.
	e.forEachTile(func(t int) {
		for k := 0; k < e.tileSeeds[t]; k++ {
			v := e.tileExec[t][k]
			if e.status[v] != StatusAlive || !e.nodes[v].frameDirty {
				continue
			}
			for _, w := range e.g.Neighbors(int(v)) {
				if e.status[w] != StatusAlive {
					continue
				}
				if wt := int(e.tileOf[w]); wt != t {
					e.tileOutbox[t*T+wt] = append(e.tileOutbox[t*T+wt], int32(w))
				} else if !e.execFlag[w] {
					e.execFlag[w] = true
					e.tileExec[t] = append(e.tileExec[t], int32(w))
				}
			}
		}
	})

	// Halo merge (tile-parallel over destinations): see mergeHalos.
	e.forEachTile(e.mergeHalos)
	if probe != nil {
		probe.PhaseEnd(obs.PhaseHalo)
		crossings := 0
		for i := range e.tileOutbox {
			crossings += len(e.tileOutbox[i])
		}
		probe.Counter(obs.CtrHaloCross, int64(crossings))
	}

	total := 0
	for t := 0; t < T; t++ {
		total += len(e.tileExec[t])
	}
	if probe != nil {
		probe.Counter(obs.CtrExec, int64(total))
	}
	if total == 0 {
		// Fully quiescent: identical no-op to the flat frontier path.
		e.stepChanged = false
		e.step++
		if e.postStep != nil {
			return e.postStep(e.step)
		}
		return nil
	}

	if probe != nil {
		probe.PhaseBegin(obs.PhaseFrame)
	}
	// Phase 1 (tile-parallel): refresh outgoing frames. Every frameDirty
	// node is on some tile's exec list (the global step invariant), so
	// after the barrier the whole frame arena is current — which is what
	// lets phase 2 read frames across tile boundaries.
	e.forEachTile(func(t int) {
		for _, v := range e.tileExec[t] {
			if e.status[v] != StatusAlive {
				continue
			}
			if n := e.nodes[v]; n.frameDirty {
				n.fillFrame(&e.out[v], e.proto.Fusion)
				n.frameDirty = false
			}
		}
	})
	if probe != nil {
		probe.PhaseEnd(obs.PhaseFrame)
		probe.PhaseBegin(obs.PhaseIngest)
	}

	// Phase 2+3 (tile-parallel): ingest + guards. Reads: the (now frozen)
	// frame arena, adjacency, statuses. Writes: only the node's own cache
	// and shared variables, plus its own disrupt.changed slot — per-node
	// disjoint, so tile boundaries need no synchronization beyond the
	// phase barrier.
	tracking := e.disrupt.active
	e.forEachTile(func(t int) {
		changed := false
		for _, v := range e.tileExec[t] {
			i := int(v)
			if e.status[i] != StatusAlive {
				continue
			}
			n := e.nodes[i]
			ingest(n, e.out, e.g.Neighbors(i), e.sendMask, e.proto)
			if !n.dirty {
				continue
			}
			n.dirty = false
			c := n.guardN1(e.proto)
			c = n.guardR1(e.densityScaleOf(i)) || c
			c = n.guardR2(e.proto) || c
			if c {
				n.dirty = true
				n.frameDirty = true
				if tracking {
					e.disrupt.changed[i] = true
				}
				changed = true
			}
		}
		e.tileChanged[t] = changed
	})
	if probe != nil {
		probe.PhaseEnd(obs.PhaseIngest)
	}
	e.stepChanged = false
	for t := 0; t < T; t++ {
		if e.tileChanged[t] {
			e.stepChanged = true
		}
	}

	// Re-arm (sequential, tile order): survivors rejoin the global pend
	// worklist — the between-step representation stays tile-agnostic, so
	// Activate, Compact and the churn mutators need no tile awareness.
	for t := 0; t < T; t++ {
		for _, v := range e.tileExec[t] {
			e.execFlag[v] = false
			if e.status[v] != StatusAlive {
				continue
			}
			n := e.nodes[v]
			if (n.dirty || n.frameDirty || n.stale) && !e.pendFlag[v] {
				e.pendFlag[v] = true
				e.pend = append(e.pend, v)
			}
		}
	}

	if e.stepChanged {
		e.epoch++
		e.lastChange = e.step + 1
	}
	e.step++
	if e.postStep != nil {
		return e.postStep(e.step)
	}
	return nil
}
