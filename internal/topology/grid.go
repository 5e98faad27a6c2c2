package topology

import (
	"fmt"
	"math"
	"sort"

	"selfstab/internal/geom"
	"selfstab/internal/slot"
)

// GridIndex is a persistent unit-disk spatial index: a dense uniform grid
// of cells at least the radio range wide, plus the unit-disk graph it
// implies. Unlike FromPoints — which rebuilds buckets, adjacency and sort
// order from scratch — a GridIndex survives across mobility steps and
// Update only recomputes the edges of nodes that actually moved, reusing
// every backing array. Under a mobility trace this turns the per-sample
// topology cost from "rebuild the world" into work proportional to how
// much the world changed.
//
// The grid is anchored at the bounding box of the initial positions; later
// positions may wander outside it — cell coordinates clamp to the border,
// which preserves correctness (clamping is monotone, so two points within
// range still land in adjacent cells) at the cost of fatter border cells.
type GridIndex struct {
	r    float64 // radio range
	r2   float64
	side float64 // cell side, >= r (grown to bound the cell count)
	minX float64
	minY float64
	cols int
	rows int

	pts      []geom.Point // current positions (owned copy)
	cell     []int32      // cell index per node
	buckets  [][]int32    // node indices per cell (unordered)
	inactive []bool       // radio off (dead or sleeping): no bucket entry, no edges
	g        *Graph

	// Reusable Update scratch.
	movedFlag []bool
	moved     []int32
	newNbrs   []int
	added     []int
	removed   []int

	// onAdjChange, when set, is invoked once per node whose adjacency
	// list was changed by an incremental operation (Update, Append,
	// Deactivate, Reactivate) — both endpoints of every created or
	// vanished edge. It is the topology-delta feed the frontier step
	// engine activates its worklist from. Duplicate notifications are
	// allowed; missing ones are not.
	onAdjChange func(i int)
}

// NewGridIndex builds the index and its unit-disk graph over pts: nodes
// u != v are adjacent iff their Euclidean distance is at most r (the
// paper's radio model; communication is bidirectional by construction).
// The grid anchors on the bounding box of pts; when nodes are expected to
// roam a known region wider than the initial deployment (e.g. a hotspot
// deployment dispersing across the unit square), use NewGridIndexInRegion
// so later positions keep falling into proper cells instead of clamping.
func NewGridIndex(pts []geom.Point, r float64) *GridIndex {
	return newGridIndex(pts, r, nil)
}

// NewGridIndexInRegion is NewGridIndex with the grid anchored on region's
// bounding box rather than the initial point spread.
func NewGridIndexInRegion(pts []geom.Point, r float64, region geom.Rect) *GridIndex {
	return newGridIndex(pts, r, &region)
}

func newGridIndex(pts []geom.Point, r float64, region *geom.Rect) *GridIndex {
	gi := &GridIndex{
		r:        r,
		r2:       r * r,
		pts:      append([]geom.Point(nil), pts...),
		g:        New(len(pts)),
		cell:     make([]int32, len(pts)),
		inactive: make([]bool, len(pts)),
	}
	gi.sizeGrid(region)
	gi.buckets = make([][]int32, gi.cols*gi.rows)
	for i, p := range gi.pts {
		c := gi.cellOf(p)
		gi.cell[i] = c
		gi.buckets[c] = append(gi.buckets[c], int32(i))
	}
	if r > 0 {
		for i := range gi.pts {
			gi.g.adj[i] = gi.collectNeighbors(i, gi.g.adj[i])
		}
	}
	return gi
}

// sizeGrid anchors the grid on the given region (or, when nil, on the
// bounding box of the current points) and picks a cell side >= r that
// keeps the cell count within a constant factor of the node count (a
// dense slice of empty cells must not dominate memory when the range is
// tiny relative to the spread).
func (gi *GridIndex) sizeGrid(region *geom.Rect) {
	var minX, minY, maxX, maxY float64
	if region != nil {
		minX, minY, maxX, maxY = region.MinX, region.MinY, region.MaxX, region.MaxY
	} else {
		minX, minY = math.Inf(1), math.Inf(1)
		maxX, maxY = math.Inf(-1), math.Inf(-1)
		for _, p := range gi.pts {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
		if len(gi.pts) == 0 {
			minX, minY, maxX, maxY = 0, 0, 0, 0
		}
	}
	gi.minX, gi.minY = minX, minY
	side := gi.r
	if side <= 0 {
		// No edges are possible; one cell suffices.
		gi.side, gi.cols, gi.rows = 1, 1, 1
		return
	}
	maxCells := 4*len(gi.pts) + 64
	for {
		cols := int((maxX-minX)/side) + 1
		rows := int((maxY-minY)/side) + 1
		if cols*rows <= maxCells {
			gi.side, gi.cols, gi.rows = side, cols, rows
			return
		}
		side *= 2
	}
}

// cellOf maps a point to its (clamped) dense cell index.
func (gi *GridIndex) cellOf(p geom.Point) int32 {
	cx := int((p.X - gi.minX) / gi.side)
	cy := int((p.Y - gi.minY) / gi.side)
	if cx < 0 {
		cx = 0
	} else if cx >= gi.cols {
		cx = gi.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= gi.rows {
		cy = gi.rows - 1
	}
	return int32(cy*gi.cols + cx)
}

// collectNeighbors gathers the sorted unit-disk neighbors of node i from
// the 3x3 cell block around its cell, into dst (reused, returned resliced).
func (gi *GridIndex) collectNeighbors(i int, dst []int) []int {
	dst = dst[:0]
	p := gi.pts[i]
	c := int(gi.cell[i])
	cx, cy := c%gi.cols, c/gi.cols
	for dy := -1; dy <= 1; dy++ {
		y := cy + dy
		if y < 0 || y >= gi.rows {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= gi.cols {
				continue
			}
			for _, j := range gi.buckets[y*gi.cols+x] {
				if int(j) != i && p.Dist2(gi.pts[j]) <= gi.r2 {
					dst = append(dst, int(j))
				}
			}
		}
	}
	sort.Ints(dst)
	return dst
}

// SetOnAdjacencyChange installs fn as the adjacency-delta hook: every
// incremental operation calls it for each node whose edge set changed
// (both endpoints of every created or vanished edge), before the
// operation returns. nil disables it. The step engine wires this to its
// frontier activation so a mobility or churn delta re-examines exactly
// the affected radio neighborhoods.
func (gi *GridIndex) SetOnAdjacencyChange(fn func(i int)) { gi.onAdjChange = fn }

// noteAdj stamps node i's adjacency as changed by the operation under
// way (Graph.TouchedSince) and fires the adjacency hook for it. Every
// operation that calls it advances the graph's version before returning.
func (gi *GridIndex) noteAdj(i int) {
	gi.g.touch(i)
	if gi.onAdjChange != nil {
		gi.onAdjChange(i)
	}
}

// Graph returns the maintained unit-disk graph. The graph is updated in
// place by every operation; callers that need a frozen snapshot must
// Clone it.
func (gi *GridIndex) Graph() *Graph { return gi.g }

// Points returns the indexed positions, one per node slot (inactive slots
// keep theirs). The slice is the index's own and changes under Update,
// Append and Compact: callers must not modify or retain it.
func (gi *GridIndex) Points() []geom.Point { return gi.pts }

// Update moves the indexed nodes to pts and incrementally repairs cells
// and adjacency in place: only nodes whose position changed have their
// edge sets recomputed (and their vanished/created edges patched into
// unmoved neighbors' lists). pts is copied, not retained. Cost is
// O(moved × local density); a no-op move list costs O(n) comparisons and
// touches nothing.
func (gi *GridIndex) Update(pts []geom.Point) error {
	n := len(gi.pts)
	if len(pts) != n {
		return fmt.Errorf("topology: update with %d positions for %d indexed nodes", len(pts), n)
	}
	if cap(gi.movedFlag) < n {
		gi.movedFlag = make([]bool, n)
	} else {
		gi.movedFlag = gi.movedFlag[:n]
		for i := range gi.movedFlag {
			gi.movedFlag[i] = false
		}
	}
	gi.moved = gi.moved[:0]

	// Pass 1: install new positions and repair cell membership. Inactive
	// slots (Deactivate) just record the position — they sit in no bucket
	// and own no edges, so there is nothing to repair until Reactivate.
	for i, p := range pts {
		if p == gi.pts[i] {
			continue
		}
		gi.pts[i] = p
		if gi.inactive[i] {
			continue
		}
		gi.movedFlag[i] = true
		gi.moved = append(gi.moved, int32(i))
		if c := gi.cellOf(p); c != gi.cell[i] {
			gi.bucketRemove(gi.cell[i], int32(i))
			gi.buckets[c] = append(gi.buckets[c], int32(i))
			gi.cell[i] = c
		}
	}
	if gi.r <= 0 || len(gi.moved) == 0 {
		return nil
	}

	// Pass 2: recompute each moved node's edge set against the updated
	// positions. Moved–moved pairs are decided identically by both
	// endpoints' recomputations (the distance test is symmetric), so only
	// unmoved endpoints need explicit patching.
	for _, mi := range gi.moved {
		i := int(mi)
		gi.newNbrs = gi.collectNeighbors(i, gi.newNbrs)
		gi.added, gi.removed = diffSorted(gi.g.adj[i], gi.newNbrs, gi.added, gi.removed)
		// Both endpoints of every changed edge are notified: unmoved ones
		// here as they are patched, moved ones when their own diff comes
		// up non-empty (the symmetric distance test guarantees it does).
		for _, j := range gi.removed {
			if !gi.movedFlag[j] {
				gi.g.adj[j] = removeSorted(gi.g.adj[j], i)
				gi.noteAdj(j)
			}
		}
		for _, j := range gi.added {
			if !gi.movedFlag[j] {
				gi.g.adj[j] = insertSorted(gi.g.adj[j], i)
				gi.noteAdj(j)
			}
		}
		if len(gi.added)+len(gi.removed) > 0 {
			gi.noteAdj(i)
			gi.g.version++
		}
		gi.g.adj[i] = append(gi.g.adj[i][:0], gi.newNbrs...)
	}
	return nil
}

// Append adds one new node at p to the index and its graph, wiring its
// unit-disk edges incrementally into existing neighbors' adjacency lists.
// It returns the new node's dense index (always the current node count —
// churn only ever grows the index at the end, keeping existing indices
// stable). Cost is O(local density).
func (gi *GridIndex) Append(p geom.Point) int {
	i := len(gi.pts)
	gi.pts = append(gi.pts, p)
	c := gi.cellOf(p)
	gi.cell = append(gi.cell, c)
	gi.buckets[c] = append(gi.buckets[c], int32(i))
	gi.inactive = append(gi.inactive, false)
	gi.g.adj = append(gi.g.adj, nil)
	gi.g.stamp = append(gi.g.stamp, 0)
	gi.g.touch(i)
	if gi.r > 0 {
		gi.newNbrs = gi.collectNeighbors(i, gi.newNbrs)
		for _, j := range gi.newNbrs {
			gi.g.adj[j] = insertSorted(gi.g.adj[j], i)
			gi.noteAdj(j)
		}
		gi.g.adj[i] = append(gi.g.adj[i][:0], gi.newNbrs...)
		if len(gi.newNbrs) > 0 {
			gi.noteAdj(i)
		}
	}
	gi.g.version++
	return i
}

// Deactivate switches node i's radio off: it leaves its cell bucket and
// every incident edge is removed from both endpoints. The slot (and its
// position) survives, so indices stay dense and stable; use Reactivate to
// bring the node back. Deactivating an already-inactive node is a no-op.
// Edge-list capacity is retained so a deactivate/reactivate cycle is
// allocation-free at steady state.
func (gi *GridIndex) Deactivate(i int) {
	if i < 0 || i >= len(gi.pts) || gi.inactive[i] {
		return
	}
	gi.bucketRemove(gi.cell[i], int32(i))
	gi.inactive[i] = true
	for _, j := range gi.g.adj[i] {
		gi.g.adj[j] = removeSorted(gi.g.adj[j], i)
		gi.noteAdj(j)
	}
	if len(gi.g.adj[i]) > 0 {
		gi.noteAdj(i)
		gi.g.version++
	}
	gi.g.adj[i] = gi.g.adj[i][:0]
}

// Reactivate switches node i's radio back on at its current position:
// it rejoins its cell bucket and its unit-disk edges are recomputed and
// patched into neighbors' lists. Reactivating an active node is a no-op.
func (gi *GridIndex) Reactivate(i int) {
	if i < 0 || i >= len(gi.pts) || !gi.inactive[i] {
		return
	}
	c := gi.cellOf(gi.pts[i])
	gi.cell[i] = c
	gi.buckets[c] = append(gi.buckets[c], int32(i))
	gi.inactive[i] = false
	if gi.r > 0 {
		gi.newNbrs = gi.collectNeighbors(i, gi.newNbrs)
		for _, j := range gi.newNbrs {
			gi.g.adj[j] = insertSorted(gi.g.adj[j], i)
			gi.noteAdj(j)
		}
		gi.g.adj[i] = append(gi.g.adj[i][:0], gi.newNbrs...)
		if len(gi.newNbrs) > 0 {
			gi.noteAdj(i)
			gi.g.version++
		}
	}
}

// Compact drops the slots r drops and renumbers survivors — the
// dead-slot recycling half of the engine's Compact. Removed slots must
// be inactive (Deactivated), which holds for every dead node. Cell
// buckets are rebuilt from the surviving active population; positions,
// cells and the activity flags move in place; the maintained graph is
// compacted with the same remap. The adjacency hook does not fire: no
// survivor's neighbor set changes, only its numbering.
func (gi *GridIndex) Compact(r slot.Remap) error {
	if err := r.Check("topology", len(gi.pts)); err != nil {
		return err
	}
	for old, inactive := range gi.inactive {
		if r.Of(old) < 0 && !inactive {
			return fmt.Errorf("topology: compacting active node %d", old)
		}
	}
	gi.pts = slot.Apply(r, gi.pts)
	gi.cell = slot.Apply(r, gi.cell)
	gi.inactive = slot.Apply(r, gi.inactive)
	for c := range gi.buckets {
		gi.buckets[c] = gi.buckets[c][:0]
	}
	for i := range gi.pts {
		if !gi.inactive[i] {
			gi.buckets[gi.cell[i]] = append(gi.buckets[gi.cell[i]], int32(i))
		}
	}
	return gi.g.Compact(r)
}

// bucketRemove drops node id from cell c's bucket (swap-remove).
func (gi *GridIndex) bucketRemove(c, id int32) {
	b := gi.buckets[c]
	for k, v := range b {
		if v == id {
			b[k] = b[len(b)-1]
			gi.buckets[c] = b[:len(b)-1]
			return
		}
	}
}

// diffSorted computes newList minus oldList (added) and oldList minus
// newList (removed) for sorted int slices, into reused scratch.
func diffSorted(oldList, newList, added, removed []int) (a, r []int) {
	added, removed = added[:0], removed[:0]
	i, j := 0, 0
	for i < len(oldList) && j < len(newList) {
		switch {
		case oldList[i] == newList[j]:
			i++
			j++
		case oldList[i] < newList[j]:
			removed = append(removed, oldList[i])
			i++
		default:
			added = append(added, newList[j])
			j++
		}
	}
	removed = append(removed, oldList[i:]...)
	added = append(added, newList[j:]...)
	return added, removed
}
