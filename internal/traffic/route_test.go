package traffic

import (
	"fmt"
	"testing"

	"selfstab/internal/rng"
	"selfstab/internal/slot"
)

// countCalls wraps h's NextHop so that every call bumps *calls.
func countCalls(h Hooks, calls *int) Hooks {
	next := h.NextHop
	h.NextHop = func(cur, dst int) (int, bool) {
		*calls++
		return next(cur, dst)
	}
	return h
}

// relabel compacts the world by remap under the same epoch: the same
// graph and next-hop table with every surviving slot renumbered, a hop
// into a dropped slot becoming no route. Compaction relabels the routing
// layer this way, so only the reset in Compact keeps a memo of old slot
// indices from answering for the new ones.
func (w *world) relabel(remap []int32, newN int) {
	next := make([][]int32, newN)
	for dst, row := range w.next {
		if remap[dst] < 0 {
			continue
		}
		nr := make([]int32, newN)
		for cur, nx := range row {
			if nc := remap[cur]; nc >= 0 {
				nr[nc] = -1
				if nx >= 0 {
					nr[nc] = remap[nx]
				}
			}
		}
		next[remap[dst]] = nr
	}
	alive, head := make([]bool, newN), make([]bool, newN)
	for old, nw := range remap {
		if nw >= 0 {
			alive[nw], head[nw] = w.alive[old], w.head[old]
		}
	}
	w.next, w.alive, w.head = next, alive, head
}

// TestRouteMemoMatchesNextHop pins the per-flow next-hop memo from two
// sides. It is invisible: the engine, memo and all, runs beside the
// reference forwarder, which asks the hook on every hop, through an epoch
// change with packets in flight, AddFlows, a Compact under an unchanged
// epoch, a second epoch change, TTL drops and flows with no route, and
// every step must leave both in the same state — so every forwarded hop
// went where the un-memoised hook said. And it engages: on a fixed epoch
// the hook runs at most once per (flow, hop index).
func TestRouteMemoMatchesNextHop(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("invisible/seed=%d", seed), func(t *testing.T) { memoBesideReference(t, seed) })
	}
	t.Run("engaged", memoEngaged)
}

func memoBesideReference(t *testing.T, seed int64) {
	const (
		n     = 150
		steps = 200
	)
	w := &world{src: rng.New(seed + 100)}
	w.grow(n)
	w.rewire(n)
	draw := rng.New(seed + 200)
	randomFlows := func(count int) []FlowSpec {
		out := make([]FlowSpec, 0, count)
		for len(out) < count {
			f := FlowSpec{Kind: CBR, Src: draw.Intn(n), Dst: draw.Intn(n), Rate: 0.3 + draw.Float64()}
			if len(out)%2 == 1 {
				f.Kind = Poisson
			}
			out = append(out, f)
		}
		return out
	}
	// Node 5 is cut off by every rewire: flows to and from it have no route.
	flows := append(randomFlows(50), FlowSpec{Kind: CBR, Src: 0, Dst: 5, Rate: 1}, FlowSpec{Kind: CBR, Src: 5, Dst: 9, Rate: 1})
	cfg := Config{QueueCap: 6, Budget: 2, TTL: 3}
	var memoCalls, refCalls int
	e, err := New(n, cfg, flows, countCalls(w.hooks(), &memoCalls), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r := newRefEngine(n, cfg, flows, countCalls(w.hooks(), &refCalls), seed)
	for step := 1; step <= steps; step++ {
		switch step {
		case 40, 160:
			w.rewire(len(w.alive)) // a new epoch under packets in flight
		case 80:
			more := randomFlows(15)
			if err := e.AddFlows(more); err != nil {
				t.Fatal(err)
			}
			for _, s := range more {
				r.flows = append(r.flows, flowState{spec: s, flatDist: -2})
			}
		case 120:
			remap := make([]int32, len(w.alive))
			newN := 0
			for i := range remap {
				if i%5 == 2 {
					w.alive[i] = false
					e.FlushNode(i)
					r.flushNode(i)
					remap[i] = -1
					continue
				}
				remap[i] = int32(newN)
				newN++
			}
			epoch := w.epoch
			if err := e.Compact(slot.Plan(len(remap), func(i int) bool { return remap[i] < 0 })); err != nil {
				t.Fatal(err)
			}
			r.compact(remap, newN)
			w.relabel(remap, newN)
			if w.epoch != epoch {
				t.Fatal("relabel moved the epoch")
			}
			compareForwarders(t, "after compaction", e, r)
		}
		if err := e.Step(step); err != nil {
			t.Fatal(err)
		}
		r.stepOnce(step)
		compareForwarders(t, fmt.Sprintf("step %d", step), e, r)
	}
	s := e.Stats()
	if s.Delivered == 0 || s.DropsTTL == 0 || s.DropsNoRoute == 0 {
		t.Fatalf("a fate the test should cover never happened: %+v", s)
	}
	if 2*memoCalls > refCalls {
		t.Fatalf("memo asked the hook %d times, the reference %d: the memo barely engaged", memoCalls, refCalls)
	}
	for fi, r := range e.routes {
		if len(r.walk) > cfg.TTL+1 {
			t.Fatalf("flow %d memoised %d hops, more than TTL+1 = %d", fi, len(r.walk), cfg.TTL+1)
		}
	}
}

// memoEngaged runs flows with pairwise distinct destinations on a fixed
// epoch and a TTL above the world's diameter. The world's routes are
// shortest-path trees, so a (cur, dst) pair names one flow and one hop
// index, and each may reach the hook only once.
func memoEngaged(t *testing.T) {
	const (
		n     = 150
		steps = 300
	)
	w := &world{src: rng.New(7)}
	w.grow(n)
	w.rewire(n)
	var flows []FlowSpec
	for dst := 0; dst < n; dst += 3 { // dst 5, cut off, is among them
		flows = append(flows, FlowSpec{Kind: Poisson, Src: (dst*7 + 11) % n, Dst: dst, Rate: 0.5})
	}
	calls := map[[2]int]int{}
	hooks := w.hooks()
	next := hooks.NextHop
	hooks.NextHop = func(cur, dst int) (int, bool) {
		calls[[2]int{cur, dst}]++
		return next(cur, dst)
	}
	e, err := New(n, Config{QueueCap: 64, Budget: 8, TTL: 64}, flows, hooks, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for step := 1; step <= steps; step++ {
		if err := e.Step(step); err != nil {
			t.Fatal(err)
		}
		if step == steps/2 {
			total = len(calls)
		}
	}
	for k, c := range calls {
		if c > 1 {
			t.Fatalf("NextHop(%d, %d) asked %d times on a fixed epoch", k[0], k[1], c)
		}
	}
	s := e.Stats()
	if s.DropsTTL != 0 || s.DropsQueue != 0 || s.DropsNoRoute == 0 {
		t.Fatalf("want no TTL or queue drops and some no-route ones: %+v", s)
	}
	if hops := s.MeanHops * float64(s.Delivered); len(calls) == 0 || hops < 10*float64(len(calls)) {
		t.Fatalf("%d hook calls for %.0f delivered hops", len(calls), hops)
	}
	if len(calls) != total {
		t.Fatalf("%d hook calls after warm-up, want none: every route was walked", len(calls)-total)
	}
}
