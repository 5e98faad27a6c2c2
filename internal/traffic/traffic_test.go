package traffic

import (
	"reflect"
	"testing"

	"selfstab/internal/rng"
)

// lineHooks routes along the path 0-1-2-...-(n-1): next hop toward dst is
// cur±1. Dist is the exact hop count, TopoVersion never moves.
func lineHooks() Hooks {
	return Hooks{
		NextHop: func(cur, dst int) (int, bool) {
			if dst > cur {
				return cur + 1, true
			}
			if dst < cur {
				return cur - 1, true
			}
			return cur, true
		},
		Dist: func(src, dst int) int {
			if d := dst - src; d < 0 {
				return -d
			} else {
				return d
			}
		},
		TopoVersion: func() uint64 { return 0 },
	}
}

func mustEngine(t *testing.T, n int, cfg Config, flows []FlowSpec, hooks Hooks, seed int64) *Engine {
	t.Helper()
	e, err := New(n, cfg, flows, hooks, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func runSteps(t *testing.T, e *Engine, steps int) {
	t.Helper()
	for s := 1; s <= steps; s++ {
		if err := e.Step(s); err != nil {
			t.Fatal(err)
		}
	}
}

// checkLedger asserts the accounting identity that every packet has
// exactly one fate.
func checkLedger(t *testing.T, s Stats) {
	t.Helper()
	if got := s.Delivered + s.DropsQueue + s.DropsNoRoute + s.DropsTTL + s.DropsDeadEndpoint + s.DropsAdmission + s.DropsRateLimit + s.InFlight; got != s.Offered {
		t.Fatalf("ledger broken: delivered %d + dropsQ %d + dropsNR %d + dropsTTL %d + dropsDead %d + dropsAdm %d + dropsRL %d + inflight %d = %d, offered %d",
			s.Delivered, s.DropsQueue, s.DropsNoRoute, s.DropsTTL, s.DropsDeadEndpoint, s.DropsAdmission, s.DropsRateLimit, s.InFlight, got, s.Offered)
	}
}

func TestCBRLineDelivery(t *testing.T) {
	// One packet per step across a 5-node line: 4 hops, so after warmup a
	// packet is delivered every step with latency 4.
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 4, Rate: 1}}
	e := mustEngine(t, 5, cfg, flows, lineHooks(), 1)
	runSteps(t, e, 100)
	s := e.Stats()
	checkLedger(t, s)
	if s.Offered != 100 {
		t.Errorf("offered %d, want 100", s.Offered)
	}
	if s.Delivered < 90 {
		t.Errorf("delivered %d, want >= 90 (pipeline depth 4)", s.Delivered)
	}
	if s.MeanHops != 4 {
		t.Errorf("mean hops %v, want 4", s.MeanHops)
	}
	if s.MeanStretch != 1 {
		t.Errorf("mean stretch %v, want 1 on the line", s.MeanStretch)
	}
	if s.LatencyP50 != 4 || s.LatencyMax != 4 {
		t.Errorf("latency p50 %d max %d, want 4/4 on an uncongested line", s.LatencyP50, s.LatencyMax)
	}
	// Interior nodes forward everything; endpoints 0 forwards, 4 receives.
	load := e.Load()
	if load[4] != 0 {
		t.Errorf("sink forwarded %d packets, want 0 (delivery on arrival)", load[4])
	}
	if load[1] == 0 || load[2] == 0 || load[3] == 0 {
		t.Errorf("interior load %v, want all positive", load[1:4])
	}
}

func TestFractionalCBRRate(t *testing.T) {
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 1, Rate: 0.25}}
	e := mustEngine(t, 2, cfg, flows, lineHooks(), 1)
	runSteps(t, e, 400)
	if s := e.Stats(); s.Offered != 100 {
		t.Errorf("offered %d over 400 steps at rate 0.25, want exactly 100", s.Offered)
	}
}

func TestPoissonRateAndDeterminism(t *testing.T) {
	cfg, flows := Config{}, []FlowSpec{{Kind: Poisson, Src: 0, Dst: 3, Rate: 2}}
	a := mustEngine(t, 4, cfg, flows, lineHooks(), 7)
	b := mustEngine(t, 4, cfg, flows, lineHooks(), 7)
	runSteps(t, a, 500)
	runSteps(t, b, 500)
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("same seed diverged: %+v vs %+v", sa, sb)
	}
	if sa.Offered < 800 || sa.Offered > 1200 {
		t.Errorf("offered %d over 500 steps at mean 2/step, want ~1000", sa.Offered)
	}
	checkLedger(t, sa)
}

func TestQueueOverflowDropTail(t *testing.T) {
	// Rate 5 into a capacity-2 queue draining 1/step: steady state drops
	// 4 packets per step at the source queue, and every drop is counted.
	cfg, flows := Config{QueueCap: 2}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 2, Rate: 5}}
	e := mustEngine(t, 3, cfg, flows, lineHooks(), 1)
	runSteps(t, e, 50)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsQueue == 0 {
		t.Fatal("no queue drops under 5x overload of a 2-slot queue")
	}
	if s.Offered != 250 {
		t.Errorf("offered %d, want 250", s.Offered)
	}
	// All drops are attributed to the single flow.
	if got := s.Flows[0].Dropped; got != s.DropsQueue {
		t.Errorf("flow dropped %d, engine counted %d", got, s.DropsQueue)
	}
}

func TestQueueOverflowDropHead(t *testing.T) {
	cfg, flows := Config{QueueCap: 2, Discipline: DropHead}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 2, Rate: 5}}
	e := mustEngine(t, 3, cfg, flows, lineHooks(), 1)
	runSteps(t, e, 50)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsQueue == 0 {
		t.Fatal("no queue drops under overload with DropHead")
	}
	if got := s.Flows[0].Dropped; got != s.DropsQueue {
		t.Errorf("flow dropped %d, engine counted %d", got, s.DropsQueue)
	}
}

func TestNoRouteDrops(t *testing.T) {
	hooks := lineHooks()
	hooks.NextHop = func(cur, dst int) (int, bool) { return -1, false }
	hooks.Dist = func(src, dst int) int { return -1 }
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 1, Rate: 1}}
	e := mustEngine(t, 2, cfg, flows, hooks, 1)
	runSteps(t, e, 10)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsNoRoute == 0 || s.Delivered != 0 {
		t.Errorf("want only no-route drops, got %+v", s)
	}
	if s.DeliveryRatio != 0 {
		t.Errorf("delivery ratio %v, want 0", s.DeliveryRatio)
	}
}

func TestTTLDrops(t *testing.T) {
	// A two-node routing loop that never reaches dst 3.
	hooks := lineHooks()
	hooks.NextHop = func(cur, dst int) (int, bool) {
		if cur == 0 {
			return 1, true
		}
		return 0, true
	}
	cfg, flows := Config{TTL: 5}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 3, Rate: 1}}
	e := mustEngine(t, 4, cfg, flows, hooks, 1)
	runSteps(t, e, 40)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsTTL == 0 {
		t.Fatal("routing loop produced no TTL drops")
	}
	if s.Delivered != 0 {
		t.Errorf("loop delivered %d packets", s.Delivered)
	}
}

func TestSelfFlowDeliversInstantly(t *testing.T) {
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 1, Dst: 1, Rate: 1}}
	e := mustEngine(t, 3, cfg, flows, lineHooks(), 1)
	runSteps(t, e, 10)
	s := e.Stats()
	checkLedger(t, s)
	if s.Delivered != 10 || s.MeanHops != 0 || s.LatencyMax != 0 {
		t.Errorf("self-flow: %+v", s)
	}
}

func TestFlowWindow(t *testing.T) {
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 1, Rate: 1, Start: 5, Stop: 8}}
	e := mustEngine(t, 2, cfg, flows, lineHooks(), 1)
	runSteps(t, e, 20)
	if s := e.Stats(); s.Offered != 4 {
		t.Errorf("offered %d, want 4 (steps 5-8 inclusive)", s.Offered)
	}
}

func TestConfigValidation(t *testing.T) {
	hooks := lineHooks()
	src := rng.New(1)
	ok := []FlowSpec{{Src: 0, Dst: 1, Rate: 1}}
	bad := []struct {
		cfg   Config
		flows []FlowSpec
	}{
		{}, // no flows
		{flows: []FlowSpec{{Src: -1, Dst: 0, Rate: 1}}},                   // src range
		{flows: []FlowSpec{{Src: 0, Dst: 9, Rate: 1}}},                    // dst range
		{flows: []FlowSpec{{Src: 0, Dst: 1, Rate: 0}}},                    // rate
		{flows: []FlowSpec{{Src: 0, Dst: 1, Rate: 1, Start: 5, Stop: 2}}}, // window
		{flows: []FlowSpec{{Kind: 7, Src: 0, Dst: 1, Rate: 1}}},           // kind
		{cfg: Config{QueueCap: -1}, flows: ok},
		{cfg: Config{Discipline: 7}, flows: ok},
		{cfg: Config{TTL: -3}, flows: ok},
		{cfg: Config{Budget: -2}, flows: ok},
	}
	for i, b := range bad {
		if _, err := New(3, b.cfg, b.flows, hooks, src); err == nil {
			t.Errorf("config %d accepted: %+v", i, b)
		}
	}
	if _, err := New(3, Config{}, ok, Hooks{}, src); err == nil {
		t.Error("missing hooks accepted")
	}
	if _, err := New(0, Config{}, ok, hooks, src); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestBudgetControlsDrainRate(t *testing.T) {
	// Two packets per step into budget-1 forwarding congests; budget 2
	// keeps up.
	mk := func(budget int) Stats {
		cfg, flows := Config{Budget: budget, QueueCap: 4}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 2, Rate: 2}}
		e := mustEngine(t, 3, cfg, flows, lineHooks(), 1)
		runSteps(t, e, 60)
		return e.Stats()
	}
	s1, s2 := mk(1), mk(2)
	checkLedger(t, s1)
	checkLedger(t, s2)
	if s1.DropsQueue == 0 {
		t.Error("budget 1 under 2x load produced no queue drops")
	}
	if s2.DropsQueue != 0 {
		t.Errorf("budget 2 dropped %d packets at matched load", s2.DropsQueue)
	}
	if s2.DeliveryRatio <= s1.DeliveryRatio {
		t.Errorf("delivery ratio budget2 %v <= budget1 %v", s2.DeliveryRatio, s1.DeliveryRatio)
	}
}

// TestSelfFlowCountsInLedger is the Src == Dst regression contract in
// full: every packet of a self-flow is offered AND delivered in the same
// step, never queued, with zero hops, zero latency, and no stretch
// sample — and the per-flow ledger agrees with the totals.
func TestSelfFlowCountsInLedger(t *testing.T) {
	cfg, flows := Config{}, []FlowSpec{
		{Kind: CBR, Src: 1, Dst: 1, Rate: 1},
		{Kind: CBR, Src: 0, Dst: 2, Rate: 1}, // a real flow alongside
	}
	e := mustEngine(t, 3, cfg, flows, lineHooks(), 7)
	runSteps(t, e, 50)
	s := e.Stats()
	checkLedger(t, s)
	self := s.Flows[0]
	if self.Offered != 50 || self.Delivered != 50 || self.Dropped != 0 {
		t.Errorf("self-flow ledger: %+v", self)
	}
	if s.LatencyP50 != 0 {
		t.Errorf("latency p50 %d: self-flow latencies must register as 0", s.LatencyP50)
	}
	if s.MeanStretch != 1 {
		t.Errorf("mean stretch %v: self-flows must not contribute stretch samples", s.MeanStretch)
	}
	// Every self-flow packet was decided at injection: the only in-flight
	// packets can belong to the real flow.
	if s.InFlight > s.Flows[1].Offered-s.Flows[1].Delivered {
		t.Errorf("self-flow packets entered the forwarding queues: %+v", s)
	}
}

// aliveHooks is lineHooks plus a mutable liveness mask.
func aliveHooks(alive []bool) Hooks {
	h := lineHooks()
	h.Alive = func(i int) bool { return alive[i] }
	return h
}

// TestDeadEndpointDrops: packets addressed to a dead node are accounted
// DropsDeadEndpoint at injection; packets already in flight when the
// endpoint dies are accounted at the next forwarding hop; flows from a
// dead source pause without offering.
func TestDeadEndpointDrops(t *testing.T) {
	alive := []bool{true, true, true, true, true}
	cfg, flows := Config{}, []FlowSpec{
		{Kind: CBR, Src: 0, Dst: 4, Rate: 1},
		{Kind: CBR, Src: 3, Dst: 0, Rate: 1},
	}
	e := mustEngine(t, 5, cfg, flows, aliveHooks(alive), 9)
	runSteps(t, e, 10)
	before := e.Stats()
	checkLedger(t, before)
	if before.DropsDeadEndpoint != 0 {
		t.Fatalf("dead-endpoint drops with everyone alive: %+v", before)
	}

	// Kill node 4 (destination of flow 0) and node 3 (source of flow 1).
	alive[4] = false
	alive[3] = false
	e.FlushNode(4)
	e.FlushNode(3)
	runSteps(t, e, 10)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsDeadEndpoint == 0 {
		t.Fatalf("no dead-endpoint drops after killing the sink: %+v", s)
	}
	if got := s.Flows[1].Offered - before.Flows[1].Offered; got != 0 {
		t.Errorf("dead source kept offering %d packets", got)
	}
	if got := s.Flows[0].Offered - before.Flows[0].Offered; got != 10 {
		t.Errorf("live source offered %d, want 10", got)
	}
	// Everything flow 0 offered since the kill must have died as
	// dead-endpoint drops once in-flight packets drained.
	if s.InFlight != 0 {
		t.Errorf("in-flight %d, want 0 (everything addressed to a corpse)", s.InFlight)
	}

	// Revive the sink: delivery resumes.
	alive[4] = true
	alive[3] = true
	runSteps(t, e, 10)
	s2 := e.Stats()
	checkLedger(t, s2)
	if s2.Flows[0].Delivered <= s.Flows[0].Delivered {
		t.Errorf("delivery did not resume after wake: %+v", s2.Flows[0])
	}
}

// TestResizeAndFlush: growing the plane under churn gives new nodes
// working queues, and FlushNode accounts a lost queue exactly.
func TestResizeAndFlush(t *testing.T) {
	cfg, flows := Config{QueueCap: 8}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 3, Rate: 1}}
	e := mustEngine(t, 4, cfg, flows, lineHooks(), 11)
	runSteps(t, e, 2) // two packets in flight along the line
	e.Resize(6)       // two new arrivals
	if len(e.Load()) != 6 {
		t.Fatalf("load vector has %d entries after Resize(6)", len(e.Load()))
	}
	inFlight := e.InFlight()
	if inFlight == 0 {
		t.Fatal("expected packets in flight before the flush")
	}
	// Node 1 crashes: its queued packets become dead-endpoint drops.
	q1 := int64(e.queues[1].count)
	e.FlushNode(1)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsDeadEndpoint != q1 {
		t.Errorf("flush accounted %d drops, want %d", s.DropsDeadEndpoint, q1)
	}
	e.FlushNode(99) // out of range: safe no-op
}

// TestRecvCountersMatchLoad pins the tx/rx pairing the energy subsystem
// charges from: every forwarding event in Load has exactly one matching
// reception in Recv, receptions land on the receivers (relays and the
// destination, never the source), and the allocation-free Counters read
// agrees with the copying one.
func TestRecvCountersMatchLoad(t *testing.T) {
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 3, Rate: 1}}
	e := mustEngine(t, 4, cfg, flows, lineHooks(), 1)
	runSteps(t, e, 50)
	load, recv := e.Load(), e.recv
	tx, rx := e.Counters()
	if !reflect.DeepEqual(tx, load) || !reflect.DeepEqual(rx, recv) {
		t.Fatalf("Counters (%v, %v) disagree with the copies (%v, %v)", tx, rx, load, recv)
	}
	var txTotal, rxTotal int64
	for i := range load {
		txTotal += load[i]
		rxTotal += recv[i]
	}
	if txTotal == 0 || txTotal != rxTotal {
		t.Fatalf("tx total %d != rx total %d", txTotal, rxTotal)
	}
	if recv[0] != 0 {
		t.Errorf("source received %d packets on a one-way line", recv[0])
	}
	// On the 0→3 line every transmission by node i is received by i+1.
	for i := 0; i < 3; i++ {
		if load[i] != recv[i+1] {
			t.Errorf("hop %d→%d: %d transmissions, %d receptions", i, i+1, load[i], recv[i+1])
		}
	}
}
