package runtime

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/geom"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/slot"
	"selfstab/internal/topology"
)

// TestSparseEligibility: frontier stepping auto-enables exactly for a
// lossless medium with a synchronous daemon, and SetSparse enforces it.
func TestSparseEligibility(t *testing.T) {
	g, ids := randomNetwork(41, 40, 0.2)
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 41)
	if !e.Sparse() {
		t.Fatal("perfect medium + synchronous daemon did not enable frontier stepping")
	}
	if err := e.SetSparse(false); err != nil {
		t.Fatal(err)
	}
	if e.Sparse() {
		t.Fatal("SetSparse(false) did not disable")
	}
	if err := e.SetSparse(true); err != nil {
		t.Fatal(err)
	}
	if got := len(e.pend); got != len(e.nodes) {
		t.Fatalf("re-enabled frontier engine re-examines %d of %d nodes", got, len(e.nodes))
	}

	lossy, err := radio.NewBernoulli(0.9, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	e2 := mustEngine(t, g, ids, basicProtocol(), lossy, 42)
	if e2.Sparse() {
		t.Fatal("lossy medium enabled frontier stepping")
	}
	if err := e2.SetSparse(true); err == nil {
		t.Fatal("SetSparse(true) accepted a lossy medium")
	}
	if got := len(e2.pend); got != 0 {
		t.Fatalf("dense-only engine carries a %d-entry worklist", got)
	}

	daemon := basicProtocol()
	daemon.ActivationProb = 0.5
	e3 := mustEngine(t, g, ids, daemon, radio.Perfect{}, 43)
	if e3.Sparse() {
		t.Fatal("randomized daemon enabled frontier stepping")
	}
}

// TestFrontierQuiescence: once stabilized the worklist drains to empty
// and further steps are O(1) no-ops on protocol state.
func TestFrontierQuiescence(t *testing.T) {
	g, ids := randomNetwork(44, 300, 0.1)
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 44)
	if _, err := e.RunUntilStable(2000, 5); err != nil {
		t.Fatal(err)
	}
	if got := len(e.pend); got != 0 {
		t.Fatalf("stabilized network keeps %d nodes on the frontier", got)
	}
	before := e.Snapshot()
	if err := runSteps(e, 25); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, e.Snapshot()) {
		t.Fatal("quiescent steps changed protocol state")
	}
	if len(e.pend) != 0 {
		t.Fatal("quiescent steps re-populated the frontier")
	}
}

// twin is one half of the sparse-vs-dense equivalence harness: a
// GridIndex-maintained topology plus an engine over it, driven by a
// recorded operation trace so both twins see byte-identical inputs.
type twin struct {
	gi      *topology.GridIndex
	e       *Engine
	pts     []geom.Point
	corrupt *rng.Source
	nextID  int64
}

func newTwin(t *testing.T, seed int64, n int, r float64, proto Protocol, sparse bool, workers int) *twin {
	t.Helper()
	src := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64(), Y: src.Float64()}
	}
	return placedTwin(t, seed, pts, r, proto, sparse, workers)
}

// placedTwin is newTwin over given positions; node i has identifier i.
func placedTwin(t *testing.T, seed int64, pts []geom.Point, r float64, proto Protocol, sparse bool, workers int) *twin {
	t.Helper()
	n := len(pts)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	gi := topology.NewGridIndexInRegion(pts, r, geom.UnitSquare())
	e, err := New(gi.Graph(), ids, proto, radio.Perfect{}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetSparse(sparse); err != nil {
		t.Fatal(err)
	}
	if sparse {
		gi.SetOnAdjacencyChange(e.Activate)
	}
	e.SetGrid(gi)
	e.SetParallelism(workers)
	return &twin{gi: gi, e: e, pts: pts, corrupt: rng.New(seed + 2), nextID: int64(n)}
}

// traceOp is one resolved operation of the mixed trace.
type traceOp struct {
	kind  string
	node  int
	point geom.Point
	moves []int
	jits  []geom.Point
	frac  float64
	steps int
}

// apply drives one operation into the twin, mirroring the grid/engine
// ordering contracts of the public churn layer.
func (tw *twin) apply(t *testing.T, op traceOp) {
	t.Helper()
	switch op.kind {
	case "move":
		for k, i := range op.moves {
			tw.pts[i] = op.jits[k]
		}
		if err := tw.gi.Update(tw.pts); err != nil {
			t.Fatal(err)
		}
	case "append":
		tw.gi.Append(op.point)
		tw.pts = append(tw.pts, op.point)
		if _, err := tw.e.Append(tw.nextID); err != nil {
			t.Fatal(err)
		}
		tw.nextID++
	case "kill":
		if err := tw.e.Kill(op.node); err != nil {
			t.Fatal(err)
		}
	case "reboot":
		if err := tw.e.Reboot(op.node); err != nil {
			t.Fatal(err)
		}
	case "sleep":
		if err := tw.e.Sleep(op.node, 0); err != nil {
			t.Fatal(err)
		}
	case "wake":
		if err := tw.e.Wake(op.node); err != nil {
			t.Fatal(err)
		}
	case "corrupt":
		tw.e.Corrupt(op.frac, CorruptAll, tw.corrupt)
	case "scale":
		if err := tw.e.SetDensityScale(op.node, op.frac); err != nil {
			t.Fatal(err)
		}
	case "evict":
		if err := tw.e.Evict(op.node); err != nil {
			t.Fatal(err)
		}
	case "compact":
		r := tw.e.CompactionRemap()
		if r.Dropped() == 0 {
			return
		}
		if err := tw.gi.Compact(r); err != nil {
			t.Fatal(err)
		}
		if err := tw.e.Compact(r); err != nil {
			t.Fatal(err)
		}
		tw.pts = slot.Apply(r, tw.pts)
	case "step":
		if err := runSteps(tw.e, op.steps); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown trace op %q", op.kind)
	}
}

// pickStatus returns a uniformly chosen node in the wanted status, or -1.
func pickStatus(e *Engine, src *rng.Source, want NodeStatus) int {
	count := 0
	for i := 0; i < len(e.nodes); i++ {
		if e.Status(i) == want {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	k := src.Intn(count)
	for i := 0; i < len(e.nodes); i++ {
		if e.Status(i) != want {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return -1
}

// buildTrace generates a mixed mobility + churn + corruption trace by
// resolving random operations against a scratch twin (so victim picks
// stay valid), recording every op for replay against the other twins.
func buildTrace(t *testing.T, seed int64, n int, r float64, proto Protocol, ops int) []traceOp {
	t.Helper()
	return buildTraceKinds(t, seed, n, r, proto, ops, 7)
}

// buildTraceKinds is buildTrace drawing from the first kinds operation
// kinds: the seven of buildTrace, then density rescaling, byzantine
// eviction and slot compaction.
func buildTraceKinds(t *testing.T, seed int64, n int, r float64, proto Protocol, ops, kinds int) []traceOp {
	t.Helper()
	scratch := newTwin(t, seed, n, r, proto, true, 1)
	script := rng.New(seed + 99)
	var trace []traceOp
	emit := func(op traceOp) {
		scratch.apply(t, op)
		trace = append(trace, op)
	}
	emit(traceOp{kind: "step", steps: 30}) // partial convergence first
	for k := 0; k < ops; k++ {
		switch script.Intn(kinds) {
		case 0: // jitter a handful of nodes
			m := 1 + script.Intn(5)
			op := traceOp{kind: "move"}
			for j := 0; j < m; j++ {
				i := script.Intn(len(scratch.pts))
				p := scratch.pts[i]
				p.X += (script.Float64() - 0.5) * 0.1
				p.Y += (script.Float64() - 0.5) * 0.1
				if p.X < 0 {
					p.X = 0
				} else if p.X > 1 {
					p.X = 1
				}
				if p.Y < 0 {
					p.Y = 0
				} else if p.Y > 1 {
					p.Y = 1
				}
				op.moves = append(op.moves, i)
				op.jits = append(op.jits, p)
			}
			emit(op)
		case 1:
			emit(traceOp{kind: "append", point: geom.Point{X: script.Float64(), Y: script.Float64()}})
		case 2:
			if i := pickStatus(scratch.e, script, StatusAlive); i >= 0 && scratch.e.AliveCount() > 3 {
				emit(traceOp{kind: "kill", node: i})
			}
		case 3:
			if i := pickStatus(scratch.e, script, StatusAlive); i >= 0 {
				emit(traceOp{kind: "reboot", node: i})
			}
		case 4:
			if i := pickStatus(scratch.e, script, StatusAlive); i >= 0 && scratch.e.AliveCount() > 3 {
				emit(traceOp{kind: "sleep", node: i})
			}
		case 5:
			if i := pickStatus(scratch.e, script, StatusSleeping); i >= 0 {
				emit(traceOp{kind: "wake", node: i})
			}
		case 6:
			emit(traceOp{kind: "corrupt", frac: 0.15})
		case 7:
			if i := pickStatus(scratch.e, script, StatusAlive); i >= 0 {
				emit(traceOp{kind: "scale", node: i, frac: 0.25 * float64(1+script.Intn(4))})
			}
		case 8:
			if i := pickStatus(scratch.e, script, StatusAlive); i >= 0 {
				emit(traceOp{kind: "evict", node: i})
			}
		case 9:
			emit(traceOp{kind: "compact"})
		}
		emit(traceOp{kind: "step", steps: 1 + script.Intn(4)})
	}
	emit(traceOp{kind: "step", steps: 120}) // settle
	return trace
}

func compareTwins(t *testing.T, label string, a, b *twin) {
	t.Helper()
	sa, sb := a.e.Snapshot(), b.e.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		for i := range sa.IDs {
			if sa.TieID[i] != sb.TieID[i] || sa.Density[i] != sb.Density[i] ||
				sa.HeadID[i] != sb.HeadID[i] || sa.Parent[i] != sb.Parent[i] {
				t.Fatalf("%s: node %d diverged: dense (%d %v %d %d) vs sparse (%d %v %d %d)",
					label, i, sa.TieID[i], sa.Density[i], sa.HeadID[i], sa.Parent[i],
					sb.TieID[i], sb.Density[i], sb.HeadID[i], sb.Parent[i])
			}
		}
		t.Fatalf("%s: snapshots diverged", label)
	}
	for i := 0; i < len(a.e.nodes); i++ {
		if a.e.Status(i) != b.e.Status(i) {
			t.Fatalf("%s: node %d status %s vs %s", label, i, a.e.Status(i), b.e.Status(i))
		}
	}
	if a.e.Epoch() != b.e.Epoch() {
		t.Fatalf("%s: epochs diverged: %d vs %d", label, a.e.Epoch(), b.e.Epoch())
	}
	ra, rb := a.e.DisruptionRecords(), b.e.DisruptionRecords()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%s: ledgers diverged:\n dense: %+v\nsparse: %+v", label, ra, rb)
	}
}

// TestSparseMatchesDenseMixedTrace is the step pipeline's equivalence
// oracle, one row per (protocol, seed, workers): over a randomized mixed
// trace — mobility jitter through the incremental grid, node churn,
// corruption, interleaved stepping — a frontier engine must be
// bit-identical, step by step, to its full-scan twin. Every trace ends with
// whole-population corruptions of the settled world, so every row also
// runs fully pending steps, where expand skips the neighborhood walk.
//
// The root determinism matrix compares whole worlds at a cut and at the
// end, so it cannot see this test's subject: the engine compared after every
// single step, the fully pending step asserted, and the drained
// worklist of the settled frontier. Its twin and trace builder are shared
// with TestCachedLinkCountMatchesRecount and the alive-index tests.
func TestSparseMatchesDenseMixedTrace(t *testing.T) {
	protos := map[string]Protocol{
		"basic-ttl4": {Order: cluster.OrderBasic, CacheTTL: 4},
		"basic-ttl8": {Order: cluster.OrderBasic, CacheTTL: 8}, // the TTL every bench workload runs
		"dag-fusion": {Order: cluster.OrderSticky, CacheTTL: 3, UseDag: true, Gamma: 1 << 14, Fusion: true},
	}
	const n, r = 120, 0.14
	for name, proto := range protos {
		for _, seed := range []int64{1, 2, 3} {
			trace := buildTrace(t, seed*1000, n, r, proto, 40)
			for round := 0; round < 2; round++ {
				trace = append(trace, traceOp{kind: "corrupt", frac: 1}, traceOp{kind: "step", steps: 3})
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/seed%d/w%d", name, seed, workers), func(t *testing.T) {
					ref := newTwin(t, seed*1000, n, r, proto, false, workers)
					tw := newTwin(t, seed*1000, n, r, proto, true, workers)
					for k, op := range trace {
						if op.kind != "step" {
							ref.apply(t, op)
							tw.apply(t, op)
							if got, alive := len(tw.e.pend), tw.e.AliveCount(); op.kind == "corrupt" && op.frac == 1 && got < alive {
								t.Fatalf("op %d: corruption pended only %d of %d alive nodes — no fully pending step", k, got, alive)
							}
							continue
						}
						for s := 0; s < op.steps; s++ {
							ref.apply(t, traceOp{kind: "step", steps: 1})
							tw.apply(t, traceOp{kind: "step", steps: 1})
							compareTwins(t, fmt.Sprintf("op %d step %d", k, s), ref, tw)
						}
					}
					// The settled frontier twin must also have drained
					// its worklist (quiescence is what makes it O(1)).
					if _, err := tw.e.RunUntilStable(3000, 5); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.e.RunUntilStable(3000, 5); err != nil {
						t.Fatal(err)
					}
					compareTwins(t, "final", ref, tw)
					if got := len(tw.e.pend); got != 0 {
						t.Fatalf("stabilized frontier twin keeps %d nodes on the frontier", got)
					}
				})
			}
		}
	}
}

// TestParkedNodeAgesLikeFullScan follows one parked node through the
// deadline queue beside a full-scan twin, on five hand-placed nodes: X
// far away, and a watcher W whose neighbors are a sleeper S, a mover M and
// a fixed node F. When S falls asleep, W's next ingest leaves S's entry
// aged 1 and nothing else to do, so W parks until the step that entry
// reaches TTL+1 and is evicted. After every step every node's cache —
// identifiers, frames and ages, a parked node's read as of its skipped
// ingests — must equal the twin's, and W must be visited exactly on the
// steps the row's pattern marks v:
//
//   - sleeper: W is absent until the eviction step and visited then;
//   - restamp: M moves out of range mid-park, which wakes W early. W's
//     skipped ingest heard M, so M's entry must start aging from that
//     step, not from the park;
//   - compact: X is dead, and Compact renumbers W while it is parked;
//   - toggle: frontier stepping is switched off and back on while W is
//     parked, once without a step between and once around a full-scan
//     step, which visits W and voids its queue entry;
//   - asleep: W itself falls asleep while parked. It ingested until then,
//     so its entries must age up to the sleep and then freeze.
func TestParkedNodeAgesLikeFullScan(t *testing.T) {
	const ttl, r = 4, 0.1
	const x, w, s, m = 0, 1, 2, 3
	pts := []geom.Point{
		x:     {X: 0.1, Y: 0.1},
		w:     {X: 0.5, Y: 0.5},
		s:     {X: 0.57, Y: 0.5},
		m:     {X: 0.43, Y: 0.5},
		m + 1: {X: 0.5, Y: 0.57}, // F
	}
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: ttl}
	step := traceOp{kind: "step", steps: 1}
	sleep := traceOp{kind: "sleep", node: s}
	away := traceOp{kind: "move", moves: []int{m}, jits: []geom.Point{{X: 0.3, Y: 0.5}}}
	off, on := traceOp{kind: "sparse-off"}, traceOp{kind: "sparse-on"}
	parked := traceOp{kind: "parked"} // asserts that W is parked
	rows := []struct {
		name  string
		setup []traceOp // applied, then settled, before the row starts
		ops   []traceOp
		want  string // W on step k of the row: v visited, - not, ? either
	}{
		{"sleeper", nil, []traceOp{sleep, step, parked, step, step, step, step, step}, "v---v?"},
		{"restamp", nil, []traceOp{sleep, step, step, parked, away, step, step, step, step, step, step, step}, "v-v-v????"},
		{"compact", []traceOp{{kind: "kill", node: x}}, []traceOp{sleep, step, parked, {kind: "compact"}, step, step, step, step, step}, "v---v?"},
		{"toggle", nil, []traceOp{sleep, step, parked, off, on, step, step, parked, off, step, on, step, step}, "vv-vv?"},
		{"asleep", nil, []traceOp{sleep, step, step, parked, {kind: "sleep", node: w}, step, step, {kind: "wake", node: w}, step, step, step, step, step}, "v-v-v"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref := placedTwin(t, 7, slices.Clone(pts), r, proto, false, 1)
			tw := placedTwin(t, 7, slices.Clone(pts), r, proto, true, 1)
			settle := func() {
				for _, e := range []*Engine{ref.e, tw.e} {
					if _, err := e.RunUntilStable(200, ttl+2); err != nil {
						t.Fatal(err)
					}
				}
			}
			settle()
			for _, op := range row.setup {
				ref.apply(t, op)
				tw.apply(t, op)
			}
			settle()
			compareTwins(t, "settled", ref, tw)
			watcher := func() (int32, *Node) {
				i, _ := tw.e.Index(w) // identifiers are the initial slots
				return int32(i), tw.e.nodes[i]
			}
			if _, n := watcher(); len(tw.e.pend) != 0 || n.parked {
				t.Fatal("the settled world still has work")
			}
			k := 0
			for i, op := range row.ops {
				switch op.kind {
				case "parked":
					if _, n := watcher(); !n.parked {
						t.Fatalf("op %d: W is not parked", i)
					}
					continue
				case "sparse-off", "sparse-on":
					if err := tw.e.SetSparse(op.kind == "sparse-on"); err != nil {
						t.Fatal(err)
					}
					continue
				case "step":
				default:
					ref.apply(t, op)
					tw.apply(t, op)
					continue
				}
				ref.apply(t, op)
				tw.apply(t, op)
				k++
				label := fmt.Sprintf("step %d", k)
				compareTwins(t, label, ref, tw)
				compareCaches(t, label, ref.e, tw.e)
				wi, _ := watcher()
				visited := slices.Contains(tw.e.exec, wi)
				if k <= len(row.want) && row.want[k-1] != '?' && visited != (row.want[k-1] == 'v') {
					t.Fatalf("%s: W visited %v, want pattern %q", label, visited, row.want)
				}
			}
			if _, n := watcher(); n.cache.has(s) {
				t.Fatal("W never evicted the sleeper")
			}
		})
	}
}

// compareCaches fails unless every node of a holds the cache of the same
// node of b: the same neighbors, frames and ages. A parked node's ages
// are read as if it had ingested on every step it skipped: an entry heard
// at the park was heard again each time, every other one aged.
func compareCaches(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	type entry struct {
		id, tie, head int64
		density       float64
		nbrs          string
		age           int32
	}
	view := func(e *Engine, i int) []entry {
		n := e.nodes[i]
		var out []entry
		for _, c := range n.cache {
			age := n.tick - c.heard
			if n.parked && age > 0 {
				age += int32(e.step) - n.parkedAt - 1
			}
			f := c.frame
			out = append(out, entry{f.ID, f.TieID, f.HeadID, f.Density, fmt.Sprint(f.Nbrs.ids(), f.Nbrs.vals()), age})
		}
		return out
	}
	for i := range a.nodes {
		if va, vb := view(a, i), view(b, i); !slices.Equal(va, vb) {
			t.Fatalf("%s: node %d cache diverged:\nfull scan %+v\n frontier %+v", label, i, va, vb)
		}
	}
}

// TestVisitListMatchesReference pins a frontier step's visit list to its
// definition. Before every step of a mixed trace the set is computed
// naively from the worklist, the parked nodes' caches and the dirty flags;
// after the step exec must
// hold exactly that set in strictly increasing slot order, and the visit
// bitset must be empty again. The trace carries churn, compaction, grid
// position updates (the incremental path Network.SetPositions drives)
// and corruption of 1, 30, 60 and 100 % of the settled world.
func TestVisitListMatchesReference(t *testing.T) {
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 4}
	const n, r, seed = 150, 0.14, 5
	trace := buildTraceKinds(t, seed, n, r, proto, 40, 10)
	for _, kind := range []string{"move", "append", "kill", "compact"} {
		if !slices.ContainsFunc(trace, func(op traceOp) bool { return op.kind == kind }) {
			t.Fatalf("the trace has no %s op", kind)
		}
	}
	for _, frac := range []float64{0.01, 0.3, 0.6, 1} {
		trace = append(trace, traceOp{kind: "corrupt", frac: frac}, traceOp{kind: "step", steps: 4})
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			tw := newTwin(t, seed, n, r, proto, true, workers)
			woken := 0
			for k, op := range trace {
				if op.kind != "step" {
					tw.apply(t, op)
					continue
				}
				for s := 0; s < op.steps; s++ {
					want, due := referenceVisitList(tw.e)
					woken += due
					tw.apply(t, traceOp{kind: "step", steps: 1})
					got := tw.e.exec
					if !slices.Equal(got, want) {
						t.Fatalf("op %d step %d: visited %d nodes, want %d:\n got %v\nwant %v", k, s, len(got), len(want), got, want)
					}
					for i := 1; i < len(got); i++ {
						if got[i] <= got[i-1] {
							t.Fatalf("op %d step %d: visit list not strictly increasing at %d: %v", k, s, i, got)
						}
					}
					if i := slices.IndexFunc(tw.e.visit, func(w uint64) bool { return w != 0 }); i >= 0 {
						t.Fatalf("op %d step %d: visit bitset word %d left %#x", k, s, i, tw.e.visit[i])
					}
				}
			}
			if woken == 0 {
				t.Fatal("no step woke a parked node")
			}
		})
	}
}

// referenceVisitList is the set the next frontier step must visit, in slot
// order: every pending node, plus every parked node whose oldest cache
// entry is evicted by this step's ingest, plus every alive neighbor of a
// pending alive node whose frame or header is dirty. A parked node's due
// step is derived from its cache, not read from the deadline queue: the
// entry aged a at the park is evicted CacheTTL−a+1 steps later.
// It also reports how many parked nodes are due.
func referenceVisitList(e *Engine) (list []int32, due int) {
	in := make([]bool, len(e.nodes))
	for v, n := range e.nodes {
		if !n.parked {
			continue
		}
		age := 0
		for _, c := range n.cache {
			age = max(age, int(n.tick-c.heard))
		}
		if int(n.parkedAt)+e.proto.CacheTTL-age+1 == e.step {
			in[v] = true
			due++
		}
	}
	for _, v := range e.pend {
		in[v] = true
		if n := e.nodes[v]; e.status[v] == StatusAlive && (n.frameDirty || n.headerDirty) {
			for _, w := range e.g.Neighbors(int(v)) {
				in[w] = in[w] || e.status[w] == StatusAlive
			}
		}
	}
	for i, ok := range in {
		if ok {
			list = append(list, int32(i))
		}
	}
	return list, due
}

// TestEngineCompactRemap: the remap plan drops exactly the dead slots
// and preserves survivor order, and applying it leaves exactly the
// survivors, in order, under their identifiers.
func TestEngineCompactRemap(t *testing.T) {
	g, ids := randomNetwork(77, 30, 0.2)
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 77)
	if r := e.CompactionRemap(); r.Dropped() != 0 || r.N() != 30 {
		t.Fatalf("remap on a fully-alive engine drops %d, keeps %d", r.Dropped(), r.N())
	}
	for _, i := range []int{3, 7, 20} {
		if err := e.Kill(i); err != nil {
			t.Fatal(err)
		}
		e.g.RemoveNode(i)
	}
	r := e.CompactionRemap()
	if r.N() != 27 {
		t.Fatalf("N = %d, want 27", r.N())
	}
	var want []int64
	next := 0
	for old := 0; old < 30; old++ {
		nw := r.Of(old)
		switch old {
		case 3, 7, 20:
			if nw != -1 {
				t.Fatalf("dead slot %d kept index %d", old, nw)
			}
		default:
			if nw != next {
				t.Fatalf("survivor %d remapped to %d, want %d", old, nw, next)
			}
			want = append(want, e.ids[old])
			next++
		}
	}
	if e.DeadCount() != 3 {
		t.Fatalf("DeadCount = %d, want 3", e.DeadCount())
	}
	if err := e.g.Compact(r); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(r); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(e.IDs(), want) {
		t.Fatalf("ids after Compact = %v, want %v", e.IDs(), want)
	}
	for i, id := range want {
		if j, ok := e.Index(id); !ok || j != i || e.Status(i) != StatusAlive {
			t.Fatalf("node %d: Index = %d, %v; status %s", id, j, ok, e.Status(i))
		}
	}
	if e.DeadCount() != 0 || e.AliveCount() != 27 {
		t.Fatalf("after Compact: %d dead, %d alive", e.DeadCount(), e.AliveCount())
	}
}
