package traffic

import (
	"testing"

	"selfstab/internal/rng"
	"selfstab/internal/slot"
)

// TestStatsLoadMatchesRecount recounts the ledger's load summary from the
// hooks and Counters after every step of a run in which a loaded head
// dies (the world's IsHead still says head), a loaded node sleeps, and a
// Compact retires load: MeanLoad, MaxLoad, HeadFraction and HeadLoadShare
// must equal the recount exactly. The retired carry is recounted from
// Counters just before the compaction, not read from the engine.
func TestStatsLoadMatchesRecount(t *testing.T) {
	const (
		n0    = 150
		steps = 160
	)
	w := &world{src: rng.New(11)}
	w.grow(n0)
	w.rewire(n0)
	draw := rng.New(12)
	var flows []FlowSpec
	for range 80 {
		flows = append(flows, FlowSpec{Kind: CBR, Src: draw.Intn(n0), Dst: draw.Intn(n0), Rate: 0.5})
	}
	hooks := w.hooks()
	e := mustEngine(t, n0, Config{}, flows, hooks, 13)
	var retired, retiredMax int64
	// busiest returns the alive slot with the most forwarding among those
	// whose headship is head; it fails the test if none has forwarded.
	busiest := func(head bool) int {
		tx, _ := e.Counters()
		best := -1
		for i, l := range tx {
			if w.alive[i] && w.head[i] == head && (best < 0 || l > tx[best]) {
				best = i
			}
		}
		if best < 0 || tx[best] == 0 {
			t.Fatalf("no loaded alive node with head=%v", head)
		}
		return best
	}
	for step := 1; step <= steps; step++ {
		switch step {
		case 40:
			dead := busiest(true)
			w.alive[dead] = false
			e.FlushNode(dead)
		case 60:
			w.alive[busiest(false)] = false // asleep: kept, not operating
		case 100:
			tx, _ := e.Counters()
			plan := slot.Plan(len(w.alive), func(i int) bool {
				return i%6 == 1 || (!w.alive[i] && w.head[i])
			})
			alive, head := make([]bool, plan.N()), make([]bool, plan.N())
			for i := range w.alive {
				if nw := plan.Of(i); nw >= 0 {
					alive[nw], head[nw] = w.alive[i], w.head[i]
					continue
				}
				e.FlushNode(i)
				retired += tx[i]
				retiredMax = max(retiredMax, tx[i])
			}
			if retired == 0 {
				t.Fatal("the compaction retired no load")
			}
			if err := e.Compact(plan); err != nil {
				t.Fatal(err)
			}
			w.alive, w.head = alive, head
			w.rewire(plan.N())
		}
		if err := e.Step(step); err != nil {
			t.Fatal(err)
		}
		tx, _ := e.Counters()
		total, maxLoad, headLoad := retired, retiredMax, int64(0)
		operating, heads := 0, 0
		for i, l := range tx {
			total += l
			maxLoad = max(maxLoad, l)
			if !hooks.Alive(i) {
				continue
			}
			operating++
			if hooks.IsHead(i) {
				heads++
				headLoad += l
			}
		}
		if total == 0 {
			continue
		}
		s := e.Stats()
		want := Stats{
			MeanLoad:      float64(total) / float64(operating),
			MaxLoad:       maxLoad,
			HeadFraction:  float64(heads) / float64(operating),
			HeadLoadShare: float64(headLoad) / float64(total),
		}
		if s.MeanLoad != want.MeanLoad || s.MaxLoad != want.MaxLoad ||
			s.HeadFraction != want.HeadFraction || s.HeadLoadShare != want.HeadLoadShare {
			t.Fatalf("step %d: load summary (mean %v, max %d, head fraction %v, head share %v), recount (%v, %d, %v, %v)",
				step, s.MeanLoad, s.MaxLoad, s.HeadFraction, s.HeadLoadShare,
				want.MeanLoad, want.MaxLoad, want.HeadFraction, want.HeadLoadShare)
		}
	}
}
