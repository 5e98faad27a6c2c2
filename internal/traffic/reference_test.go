package traffic

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"selfstab/internal/rng"
	"selfstab/internal/snapshot"
)

// refEngine is the forwarder as it was before the busy bitset and the flat
// staging list: a sorted worklist of node indices with membership flags,
// one staging buffer per receiver and rings that wrap with %. It keeps
// only what Step, SetDefense, Resize, Compact and FlushNode need, and it
// shares no code with Engine that those changed: only flowState's draws
// and acc's histogram, which they did not touch.
type refEngine struct {
	cfg   Config
	hooks Hooks
	src   *rng.Source

	queues    []refRing
	arrivals  [][]packet
	flows     []flowState
	load      []int64
	recv      []int64
	busy      []int32
	busyFlag  []bool
	busyDirty bool
	arrList   []int32
	arrFlag   []bool

	defense  Defense
	tokens   []float64
	tokensAt []int32
	injCount []int32
	injAt    []int32

	acc  acc
	step int
}

type refRing struct {
	buf         []packet
	head, count int
}

func (r *refRing) push(p packet) bool {
	if r.count == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.count)%len(r.buf)] = p
	r.count++
	return true
}

func (r *refRing) pop() packet {
	p := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return p
}

// contents lists the queue front to back.
func (r *refRing) contents() []packet {
	out := make([]packet, r.count)
	for k := range out {
		out[k] = r.buf[(r.head+k)%len(r.buf)]
	}
	return out
}

func newRefEngine(n int, cfg Config, flows []FlowSpec, hooks Hooks, seed int64) *refEngine {
	fillDefaults(&cfg)
	r := &refEngine{cfg: cfg, hooks: hooks, src: rng.New(seed)}
	r.resize(n)
	for _, s := range flows {
		r.flows = append(r.flows, flowState{spec: s, flatDist: -2})
	}
	return r
}

func (r *refEngine) setDefense(d Defense) {
	r.defense = d
	r.tokens, r.tokensAt, r.injCount, r.injAt = nil, nil, nil, nil
	n := len(r.queues)
	if d.HeadAdmission {
		r.tokens, r.tokensAt = make([]float64, n), make([]int32, n)
		for i := range r.tokensAt {
			r.tokensAt[i] = -1
		}
	}
	if d.SourceCap > 0 {
		r.injCount, r.injAt = make([]int32, n), make([]int32, n)
		for i := range r.injAt {
			r.injAt[i] = -1
		}
	}
}

func (r *refEngine) alive(i int) bool {
	return i >= 0 && (r.hooks.Alive == nil || r.hooks.Alive(i))
}

func (r *refEngine) headRefuses(v int) bool {
	if r.tokens == nil || r.hooks.IsHead == nil || !r.hooks.IsHead(v) {
		return false
	}
	if r.tokensAt[v] < 0 {
		r.tokens[v] = r.defense.HeadBurst
		r.tokensAt[v] = int32(r.step)
	} else if dt := r.step - int(r.tokensAt[v]); dt > 0 {
		r.tokens[v] = min(r.defense.HeadBurst, r.tokens[v]+r.defense.HeadRate*float64(dt))
		r.tokensAt[v] = int32(r.step)
	}
	if r.tokens[v] >= 1 {
		r.tokens[v]--
		return false
	}
	return true
}

func (r *refEngine) stepOnce(step int) {
	r.step = step
	for fi := range r.flows {
		f := &r.flows[fi]
		if !r.alive(f.spec.Src) {
			continue
		}
		for range f.arrivalsThisStep(step, r.src) {
			r.inject(fi, f)
		}
	}
	if r.busyDirty {
		slices.Sort(r.busy)
		r.busyDirty = false
	}
	w := 0
	for _, bu := range r.busy {
		u := int(bu)
		q := &r.queues[u]
		if q.count == 0 {
			r.busyFlag[u] = false
			continue
		}
		r.busy[w] = bu
		w++
		if !r.alive(u) {
			continue
		}
		for b := r.cfg.Budget; b > 0 && q.count > 0; b-- {
			p := q.pop()
			if !r.alive(int(p.dst)) {
				r.acc.dropsDeadEndpoint++
				r.flows[p.flow].dropped++
				continue
			}
			next, ok := r.hooks.NextHop(u, int(p.dst))
			if !ok || next == u {
				r.acc.dropsNoRoute++
				r.flows[p.flow].dropped++
				continue
			}
			p.hops++
			if int(p.hops) > r.cfg.TTL {
				r.acc.dropsTTL++
				r.flows[p.flow].dropped++
				continue
			}
			r.load[u]++
			r.recv[next]++
			if next == int(p.dst) {
				if r.headRefuses(next) {
					r.acc.dropsAdmission++
					r.flows[p.flow].dropped++
					continue
				}
				r.deliver(p)
				continue
			}
			if len(r.arrivals[next]) == 0 && !r.arrFlag[next] {
				r.arrFlag[next] = true
				r.arrList = append(r.arrList, int32(next))
			}
			r.arrivals[next] = append(r.arrivals[next], p)
		}
	}
	r.busy = r.busy[:w]
	for _, av := range r.arrList {
		v := int(av)
		for _, p := range r.arrivals[v] {
			r.admit(v, p)
		}
		r.arrivals[v] = r.arrivals[v][:0]
		r.arrFlag[v] = false
	}
	r.arrList = r.arrList[:0]
}

func (r *refEngine) inject(fi int, f *flowState) {
	r.acc.offered++
	f.offered++
	src, dst := f.spec.Src, f.spec.Dst
	if r.injCount != nil {
		if r.injAt[src] != int32(r.step) {
			r.injAt[src] = int32(r.step)
			r.injCount[src] = 0
		}
		if int(r.injCount[src]) >= r.defense.SourceCap {
			r.acc.dropsRateLimit++
			f.dropped++
			return
		}
		r.injCount[src]++
	}
	if !r.alive(dst) {
		r.acc.dropsDeadEndpoint++
		f.dropped++
		return
	}
	p := packet{flow: int32(fi), dst: int32(dst), born: int32(r.step)}
	if src == dst {
		r.deliver(p)
		return
	}
	f.refreshFlatDist(r.hooks)
	r.admit(src, p)
}

func (r *refEngine) admit(v int, p packet) {
	if r.headRefuses(v) {
		r.acc.dropsAdmission++
		r.flows[p.flow].dropped++
		return
	}
	q := &r.queues[v]
	if q.push(p) {
		if !r.busyFlag[v] {
			r.busyFlag[v] = true
			r.busy = append(r.busy, int32(v))
			r.busyDirty = true
		}
		return
	}
	r.acc.dropsQueue++
	if r.cfg.Discipline == DropHead {
		victim := q.pop()
		q.push(p)
		r.flows[victim.flow].dropped++
		return
	}
	r.flows[p.flow].dropped++
}

func (r *refEngine) deliver(p packet) {
	f := &r.flows[p.flow]
	r.acc.delivered++
	f.delivered++
	r.acc.hopTotal += int64(p.hops)
	latency := 0
	if p.hops > 0 {
		latency = r.step - int(p.born) + 1
	}
	r.acc.observeLatency(latency)
	if p.hops > 0 && f.flatDist > 0 {
		r.acc.stretchSum += float64(p.hops) / float64(f.flatDist)
		r.acc.stretchCount++
	}
}

func (r *refEngine) resize(n int) {
	for len(r.queues) < n {
		r.queues = append(r.queues, refRing{buf: make([]packet, r.cfg.QueueCap)})
		r.arrivals = append(r.arrivals, nil)
		r.load = append(r.load, 0)
		r.recv = append(r.recv, 0)
		r.busyFlag = append(r.busyFlag, false)
		r.arrFlag = append(r.arrFlag, false)
		if r.tokens != nil {
			r.tokens = append(r.tokens, 0)
			r.tokensAt = append(r.tokensAt, -1)
		}
		if r.injCount != nil {
			r.injCount = append(r.injCount, 0)
			r.injAt = append(r.injAt, -1)
		}
	}
}

func (r *refEngine) flushNode(i int) {
	q := &r.queues[i]
	for q.count > 0 {
		p := q.pop()
		r.acc.dropsDeadEndpoint++
		r.flows[p.flow].dropped++
	}
}

// compact follows Engine.Compact's contract; the retired carry is left
// out because the referee compares per-node counters, not Stats.
func (r *refEngine) compact(remap []int32, newN int) {
	for old, nw := range remap {
		if nw < 0 {
			continue
		}
		i := int(nw)
		r.queues[i] = r.queues[old]
		r.arrivals[i] = r.arrivals[old]
		r.load[i], r.recv[i] = r.load[old], r.recv[old]
		if r.tokens != nil {
			r.tokens[i], r.tokensAt[i] = r.tokens[old], r.tokensAt[old]
		}
		if r.injCount != nil {
			r.injCount[i], r.injAt[i] = r.injCount[old], r.injAt[old]
		}
	}
	r.queues, r.arrivals = r.queues[:newN], r.arrivals[:newN]
	r.load, r.recv = r.load[:newN], r.recv[:newN]
	if r.tokens != nil {
		r.tokens, r.tokensAt = r.tokens[:newN], r.tokensAt[:newN]
	}
	if r.injCount != nil {
		r.injCount, r.injAt = r.injCount[:newN], r.injAt[:newN]
	}
	r.arrFlag = r.arrFlag[:newN]
	clear(r.busyFlag)
	r.busyFlag = r.busyFlag[:newN]
	kept := r.busy[:0]
	for _, bu := range r.busy {
		if nw := remap[bu]; nw >= 0 {
			kept = append(kept, nw)
			r.busyFlag[nw] = true
		}
	}
	r.busy = kept
	for i := range r.queues {
		q := &r.queues[i]
		for k := 0; k < q.count; k++ {
			p := &q.buf[(q.head+k)%len(q.buf)]
			if p.dst >= 0 {
				p.dst = remap[p.dst]
			}
		}
	}
	for i := range r.flows {
		f := &r.flows[i]
		if f.spec.Src >= 0 {
			f.spec.Src = int(remap[f.spec.Src])
		}
		if f.spec.Dst >= 0 {
			f.spec.Dst = int(remap[f.spec.Dst])
		}
	}
}

// world is the control plane both forwarders route over: a seeded random
// graph over the first `live` node slots, its BFS next-hop table, and the
// liveness and headship the hooks read. Every hook is a pure read, so the
// two forwarders see the same answers.
type world struct {
	next  [][]int32 // next[dst][cur]; -1 when cur cannot reach dst
	alive []bool
	head  []bool
	epoch uint64
	src   *rng.Source
}

// rewire draws a fresh random graph over nodes [0, live) — a ring with
// two random chords per node, a few nodes cut off so some flows have no
// route — and rebuilds the next-hop table over every slot.
func (w *world) rewire(live int) {
	n := len(w.alive)
	adj := make([][]int, n)
	link := func(a, b int) { adj[a] = append(adj[a], b); adj[b] = append(adj[b], a) }
	for i := 0; i < live; i++ {
		if i%37 == 5 {
			continue // isolated: every flow touching it has no route
		}
		if j := (i + 1) % live; j%37 != 5 {
			link(i, j)
		}
		for range 2 {
			if j := w.src.Intn(live); j != i && j%37 != 5 {
				link(i, j)
			}
		}
	}
	w.next = make([][]int32, n)
	for dst := range w.next {
		row := make([]int32, n)
		for i := range row {
			row[i] = -1
		}
		row[dst] = int32(dst)
		frontier := []int{dst}
		for len(frontier) > 0 {
			u := frontier[0]
			frontier = frontier[1:]
			for _, v := range adj[u] {
				if row[v] < 0 {
					row[v] = int32(u)
					frontier = append(frontier, v)
				}
			}
		}
		w.next[dst] = row
	}
	w.epoch++
}

func (w *world) hooks() Hooks {
	return Hooks{
		NextHop: func(cur, dst int) (int, bool) {
			nx := w.next[dst][cur]
			return int(nx), nx >= 0
		},
		Dist: func(src, dst int) int {
			d := 0
			for cur := src; cur != dst; cur = int(w.next[dst][cur]) {
				if w.next[dst][cur] < 0 {
					return -1
				}
				d++
			}
			return d
		},
		TopoVersion: func() uint64 { return w.epoch },
		Alive:       func(i int) bool { return w.alive[i] },
		IsHead:      func(i int) bool { return w.head[i] },
	}
}

// grow extends the per-slot state to n slots, the newcomers alive.
func (w *world) grow(n int) {
	for len(w.alive) < n {
		w.alive = append(w.alive, true)
		w.head = append(w.head, len(w.head)%9 == 0)
	}
}

// compareForwarders fails the test at the first state the two forwarders
// disagree on.
func compareForwarders(t *testing.T, at string, e *Engine, r *refEngine) {
	t.Helper()
	if !reflect.DeepEqual(e.acc, r.acc) {
		t.Fatalf("%s: ledger %+v, reference %+v", at, e.acc, r.acc)
	}
	if !reflect.DeepEqual(e.flows, r.flows) {
		t.Fatalf("%s: flows %+v, reference %+v", at, e.flows, r.flows)
	}
	tx, rx := e.Counters()
	if !slices.Equal(tx, r.load) || !slices.Equal(rx, r.recv) {
		t.Fatalf("%s: load/recv differ from the reference", at)
	}
	if !slices.Equal(e.tokens, r.tokens) || !slices.Equal(e.tokensAt, r.tokensAt) ||
		!slices.Equal(e.injCount, r.injCount) || !slices.Equal(e.injAt, r.injAt) {
		t.Fatalf("%s: defense state differs from the reference", at)
	}
	if len(e.queues) != len(r.queues) {
		t.Fatalf("%s: %d queues, reference %d", at, len(e.queues), len(r.queues))
	}
	var queued int64
	for v := range e.queues {
		q := &e.queues[v]
		got := make([]packet, q.count)
		for k := range got {
			got[k] = *q.at(k)
		}
		if want := r.queues[v].contents(); !slices.Equal(got, want) {
			t.Fatalf("%s: queue %d holds %v, reference %v", at, v, got, want)
		}
		queued += int64(q.count)
	}
	if got := e.InFlight(); got != queued {
		t.Fatalf("%s: InFlight %d, queues hold %d", at, got, queued)
	}
}

// TestStepMatchesReferenceForwarder runs the engine beside the reference
// forwarder on seeded random graphs under both disciplines and both
// budgets, with head admission and the source cap, a sleeping endpoint
// and a dead one, a Resize and a Compact midway, and requires the ledger,
// the per-flow counters, the per-node counters and every queue's contents
// to be equal after every step.
func TestStepMatchesReferenceForwarder(t *testing.T) {
	const (
		n0    = 150 // three bitset words; the Resize adds a fourth
		grown = 230
		steps = 240
	)
	for _, disc := range []snapshot.QueueDiscipline{DropTail, DropHead} {
		for _, budget := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("disc=%d/budget=%d/seed=%d", disc, budget, seed), func(t *testing.T) {
					refereeRun(t, Config{QueueCap: 4, Discipline: disc, Budget: budget, TTL: 4}, n0, grown, steps, seed)
				})
			}
		}
	}
}

func refereeRun(t *testing.T, cfg Config, n0, grown, steps int, seed int64) {
	w := &world{src: rng.New(seed + 100)}
	w.grow(n0)
	w.rewire(n0)
	draw := rng.New(seed + 200)
	randomFlows := func(count, lo, hi int) []FlowSpec {
		var out []FlowSpec
		for len(out) < count {
			f := FlowSpec{Kind: CBR, Src: lo + draw.Intn(hi-lo), Dst: lo + draw.Intn(hi-lo), Rate: 0.3 + draw.Float64()}
			if len(out)%2 == 1 {
				f.Kind = Poisson
			}
			out = append(out, f)
		}
		return out
	}
	flows := randomFlows(60, 0, n0)
	sink := 7
	for s := 0; s < 12; s++ { // a hotspot: queues overflow at its sink's neighbours
		flows = append(flows, FlowSpec{Kind: CBR, Src: draw.Intn(n0), Dst: sink, Rate: 1})
	}
	flows = append(flows, FlowSpec{Kind: CBR, Src: 3, Dst: 3, Rate: 1}) // a self-flow
	hooks := w.hooks()
	e, err := New(n0, cfg, flows, hooks, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r := newRefEngine(n0, cfg, flows, hooks, seed)
	sleeper, corpse := flows[0].Dst, flows[1].Src
	for step := 1; step <= steps; step++ {
		switch step {
		case 20:
			d := Defense{HeadAdmission: true, HeadRate: 0.5, HeadBurst: 2, SourceCap: 1}
			if err := e.SetDefense(d); err != nil {
				t.Fatal(err)
			}
			r.setDefense(d)
		case 40:
			w.alive[sleeper] = false // asleep: its queue freezes
		case 70:
			w.alive[sleeper] = true
			w.alive[corpse] = false // dead: its queue is lost
			e.FlushNode(corpse)
			r.flushNode(corpse)
		case 100:
			w.grow(grown)
			e.Resize(grown)
			r.resize(grown)
			w.rewire(grown)
			more := randomFlows(20, n0, grown)
			if err := e.AddFlows(more); err != nil {
				t.Fatal(err)
			}
			for _, s := range more {
				r.flows = append(r.flows, flowState{spec: s, flatDist: -2})
			}
		case 170:
			refereeCompact(t, w, e, r, corpse)
		}
		if err := e.Step(step); err != nil {
			t.Fatal(err)
		}
		r.stepOnce(step)
		compareForwarders(t, fmt.Sprintf("step %d", step), e, r)
	}
	if s := e.Stats(); s.Delivered == 0 || s.DropsQueue == 0 || s.DropsNoRoute == 0 || s.DropsTTL == 0 ||
		s.DropsDeadEndpoint == 0 || s.DropsAdmission == 0 || s.DropsRateLimit == 0 {
		t.Fatalf("a fate the referee should cover never happened: %+v", s)
	}
}

// refereeCompact kills every fifth node plus corpse, flushes them, and
// compacts both forwarders and the world with one monotone remap.
func refereeCompact(t *testing.T, w *world, e *Engine, r *refEngine, corpse int) {
	t.Helper()
	remap := make([]int32, len(w.alive))
	newN := 0
	for i := range remap {
		if i == corpse || (i%5 == 2 && i != 7) {
			w.alive[i] = false
			e.FlushNode(i)
			r.flushNode(i)
			remap[i] = -1
			continue
		}
		remap[i] = int32(newN)
		newN++
	}
	compareForwarders(t, "before compaction", e, r)
	if err := e.Compact(remap, newN); err != nil {
		t.Fatal(err)
	}
	r.compact(remap, newN)
	alive, head := make([]bool, newN), make([]bool, newN)
	for old, nw := range remap {
		if nw >= 0 {
			alive[nw], head[nw] = w.alive[old], w.head[old]
		}
	}
	w.alive, w.head = alive, head
	w.rewire(newN)
	compareForwarders(t, "after compaction", e, r)
}
