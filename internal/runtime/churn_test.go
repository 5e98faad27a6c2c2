package runtime

import (
	"slices"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/metric"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// TestChurnNodeAppears: a node that was isolated (just powered on) gets
// radio links and integrates into the clustering without disturbing
// legitimacy.
func TestChurnNodeAppears(t *testing.T) {
	g, ids := randomNetwork(91, 60, 0.2)
	// Power the last node off: remove its links.
	victim := 59
	isolated := g.Clone()
	isolated.RemoveNode(victim)
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 3}
	e := mustEngine(t, isolated, ids, proto, radio.Perfect{}, 1700)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	if !e.Node(victim).IsHead() {
		t.Fatal("isolated node should head itself")
	}
	// Power it on: restore the full topology.
	setGraph(e, g)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	want, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Assignment()
	for u := 0; u < g.N(); u++ {
		if got.Head[u] != want.Head[u] {
			t.Errorf("node %d head = %d, oracle %d after join", u, got.Head[u], want.Head[u])
		}
	}
}

// TestCorruptStateOnly: state-only corruption heals (caches are intact and
// immediately re-teach the node).
func TestCorruptStateOnly(t *testing.T) {
	g, ids := randomNetwork(92, 60, 0.2)
	e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 1800)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	legit := e.Snapshot()
	e.Corrupt(1.0, CorruptState, rng.New(1801))
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	healed := e.Snapshot()
	for u := range legit.HeadID {
		if healed.HeadID[u] != legit.HeadID[u] {
			t.Errorf("node %d not healed from state corruption", u)
		}
	}
}

// TestCorruptCacheOnly: cache-only corruption heals (fresh frames replace
// the garbage on the next step).
func TestCorruptCacheOnly(t *testing.T) {
	g, ids := randomNetwork(93, 60, 0.2)
	e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 1900)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	legit := e.Snapshot()
	e.Corrupt(1.0, CorruptCache, rng.New(1901))
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	healed := e.Snapshot()
	for u := range legit.HeadID {
		if healed.HeadID[u] != legit.HeadID[u] {
			t.Errorf("node %d not healed from cache corruption", u)
		}
	}
}

// TestAdversarialHeadHijack: a targeted attack — every node is convinced
// that a non-existent node with maximal density is its head and that the
// phantom sits in every cache. The protocol must flush the phantom.
func TestAdversarialHeadHijack(t *testing.T) {
	g, ids := randomNetwork(94, 50, 0.2)
	e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 2000)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	legit := e.Snapshot()

	const phantom = int64(999999)
	for _, n := range e.nodes {
		n.headID = phantom
		n.parent = phantom
		for i := range n.cache {
			n.cache[i].frame.HeadID = phantom
		}
		n.dirty = true // out-of-band mutation: re-arm the guards
		n.frameDirty = true
	}
	e.ActivateAll() // out-of-band mutations must also re-queue the nodes
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	healed := e.Snapshot()
	for u := range legit.HeadID {
		if healed.HeadID[u] == phantom {
			t.Fatalf("node %d still heads to the phantom", u)
		}
		if healed.HeadID[u] != legit.HeadID[u] {
			t.Errorf("node %d head = %d, legit %d", u, healed.HeadID[u], legit.HeadID[u])
		}
	}
}

// TestDensityInflationAttack: every cached density is inflated to look
// attractive; the protocol recomputes from neighbor lists and recovers.
func TestDensityInflationAttack(t *testing.T) {
	g, ids := randomNetwork(95, 50, 0.2)
	e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 2100)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	legit := e.Snapshot()
	for _, n := range e.nodes {
		n.density = 1e9
		for i := range n.cache {
			n.cache[i].frame.Density = 1e9
		}
		n.dirty = true // out-of-band mutation: re-arm the guards
		n.frameDirty = true
	}
	e.ActivateAll() // out-of-band mutations must also re-queue the nodes
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	healed := e.Snapshot()
	want := metric.Density{}.Values(g)
	for u := range legit.HeadID {
		if healed.Density[u] != want[u] {
			t.Errorf("node %d density %v, want %v", u, healed.Density[u], want[u])
		}
		if healed.HeadID[u] != legit.HeadID[u] {
			t.Errorf("node %d head not restored", u)
		}
	}
}

// TestPartitionAndMerge: splitting the network into two halves and merging
// them back always re-reaches the oracle for the current topology.
func TestPartitionAndMerge(t *testing.T) {
	g, ids := randomNetwork(96, 80, 0.2)
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 3}
	e := mustEngine(t, g, ids, proto, radio.Perfect{}, 2200)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}

	// Partition: delete every edge crossing x = 0.5... we don't have
	// positions here, so split by node index parity instead (an arbitrary
	// but valid partition).
	split := topology.New(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if v > u && (u%2 == v%2) {
				if err := split.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	setGraph(e, split)
	if _, err := e.RunUntilStable(1000, 5); err != nil {
		t.Fatal(err)
	}

	// Merge back.
	setGraph(e, g)
	if _, err := e.RunUntilStable(1000, 5); err != nil {
		t.Fatal(err)
	}
	want, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Assignment()
	for u := 0; u < g.N(); u++ {
		if got.Head[u] != want.Head[u] {
			t.Errorf("node %d head = %d, oracle %d after merge", u, got.Head[u], want.Head[u])
		}
	}
}

// oracleHeads computes the static fixpoint clustering for the current
// graph (identifier tie-break, no fusion).
func oracleHeads(t *testing.T, g *topology.Graph, ids []int64) []int {
	t.Helper()
	want, err := cluster.Compute(g, cluster.Config{
		Values: metric.Density{}.Values(g),
		TieIDs: ids,
		Order:  cluster.OrderBasic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return want.Head
}

// TestEngineAppendIntegratesNewNode: a node added at runtime joins the
// clustering and the whole network matches the oracle for the grown
// topology.
func TestEngineAppendIntegratesNewNode(t *testing.T) {
	g, ids := randomNetwork(131, 60, 0.2)
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 3}
	e := mustEngine(t, g, ids, proto, radio.Perfect{}, 3100)
	e.SetConvergenceWindow(6)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	// Grow the graph first (the Append contract), wiring the newcomer to
	// a handful of existing nodes.
	u := g.AddNode()
	for _, v := range []int{0, 1, 2, 3} {
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	newID := int64(100000)
	idx, err := e.Append(newID)
	if err != nil {
		t.Fatal(err)
	}
	if idx != u {
		t.Fatalf("Append gave index %d, graph node is %d", idx, u)
	}
	if _, err := e.Append(newID); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := e.RunUntilStable(500, 8); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, newID)
	want := oracleHeads(t, g, ids)
	got := e.Assignment()
	for v := 0; v < g.N(); v++ {
		if got.Head[v] != want[v] {
			t.Errorf("node %d head = %d, oracle %d after join", v, got.Head[v], want[v])
		}
	}
	recs := e.DisruptionRecords()
	if len(recs) == 0 {
		t.Fatal("join left no convergence-ledger record")
	}
	last := recs[len(recs)-1]
	if last.Kinds&ChurnJoin == 0 {
		t.Errorf("ledger kinds %v missing join", last.Kinds)
	}
	if last.AffectedNodes == 0 || last.AffectedRadius < 0 {
		t.Errorf("join affected nothing: %+v", last)
	}
}

// TestEngineKillAndSleepHeal: killing and sleeping nodes (with their
// edges detached, as the topology layer does) re-converges the survivors
// to the oracle of the shrunken graph; dead and sleeping slots are self-
// heads and do not disturb it. Waking the sleeper re-converges again.
func TestEngineKillAndSleepHeal(t *testing.T) {
	g, ids := randomNetwork(132, 70, 0.2)
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 3}
	e := mustEngine(t, g, ids, proto, radio.Perfect{}, 3200)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}

	dead, sleeper := 5, 9
	sleeperNbrs := append([]int(nil), g.Neighbors(sleeper)...)
	if err := e.Kill(dead); err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(dead)
	if err := e.Sleep(sleeper, 0); err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(sleeper)
	if err := e.Kill(dead); err == nil {
		t.Error("double kill accepted")
	}
	if err := e.Sleep(sleeper, 0); err == nil {
		t.Error("sleeping a sleeper accepted")
	}
	if err := e.Wake(dead); err == nil {
		t.Error("waking a dead node accepted")
	}
	if got := e.Status(dead); got != StatusDead {
		t.Fatalf("status(dead) = %v", got)
	}
	if got := e.Status(sleeper); got != StatusSleeping {
		t.Fatalf("status(sleeper) = %v", got)
	}
	if got, want := e.AliveCount(), g.N()-2; got != want {
		t.Fatalf("AliveCount = %d, want %d", got, want)
	}

	if _, err := e.RunUntilStable(1000, 8); err != nil {
		t.Fatal(err)
	}
	frozen := e.nodes[sleeper].headID
	want := oracleHeads(t, g, ids)
	got := e.Assignment()
	for v := 0; v < g.N(); v++ {
		if v == sleeper {
			continue // frozen state is exempt until wake
		}
		if got.Head[v] != want[v] {
			t.Errorf("node %d head = %d, oracle %d after kill+sleep", v, got.Head[v], want[v])
		}
	}
	if e.nodes[sleeper].headID != frozen {
		t.Error("sleeping node's state moved")
	}

	// Wake: restore the sleeper's edges (minus any to the dead node),
	// then bring it back.
	for _, v := range sleeperNbrs {
		if v != dead {
			if err := g.AddEdge(sleeper, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Wake(sleeper); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunUntilStable(1000, 8); err != nil {
		t.Fatal(err)
	}
	want = oracleHeads(t, g, ids)
	got = e.Assignment()
	for v := 0; v < g.N(); v++ {
		if got.Head[v] != want[v] {
			t.Errorf("node %d head = %d, oracle %d after wake", v, got.Head[v], want[v])
		}
	}
}

// TestEngineChurnParallelDeterminism: a scripted churn schedule (joins,
// kills, crashes, sleep/wake) must yield bit-identical snapshots AND a
// bit-identical convergence ledger at 1 and 4 workers. The root
// determinism matrix churns through the Network; this test edits the
// graph and the engine directly from a pre-step hook, as no Network does.
func TestEngineChurnParallelDeterminism(t *testing.T) {
	run := func(workers int) (Snapshot, []DisruptionRecord) {
		g, ids := randomNetwork(133, 200, 0.12)
		proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 4}
		e := mustEngine(t, g, ids, proto, radio.Perfect{}, 3300)
		e.SetParallelism(workers)
		nextID := int64(90000)
		e.SetPreStep(func(step int) error {
			switch step {
			case 10, 40:
				if err := e.Reboot(step % 7); err != nil {
					return err
				}
			case 20:
				if err := e.Sleep(3, 0); err != nil {
					return err
				}
				g.RemoveNode(3)
			case 30:
				for _, v := range []int{0, 10, 20} {
					if err := g.AddEdge(3, v); err != nil {
						return err
					}
				}
				if err := e.Wake(3); err != nil {
					return err
				}
			case 50:
				u := g.AddNode()
				for _, v := range []int{u - 1, u - 2} {
					if err := g.AddEdge(u, v); err != nil {
						return err
					}
				}
				nextID++
				if _, err := e.Append(nextID); err != nil {
					return err
				}
			case 60:
				if err := e.Kill(11); err != nil {
					return err
				}
				g.RemoveNode(11)
			}
			return nil
		})
		if err := runSteps(e, 120); err != nil {
			t.Fatal(err)
		}
		return e.Snapshot(), e.DisruptionRecords()
	}
	s1, l1 := run(1)
	s4, l4 := run(4)
	for u := range s1.HeadID {
		if s1.TieID[u] != s4.TieID[u] || s1.Density[u] != s4.Density[u] ||
			s1.HeadID[u] != s4.HeadID[u] || s1.Parent[u] != s4.Parent[u] {
			t.Fatalf("node %d diverged between 1 and 4 workers under churn", u)
		}
	}
	if len(l1) == 0 {
		t.Fatal("churn schedule produced no ledger records")
	}
	if len(l1) != len(l4) {
		t.Fatalf("ledger length diverged: %d vs %d", len(l1), len(l4))
	}
	for i := range l1 {
		if l1[i] != l4[i] {
			t.Fatalf("ledger record %d diverged:\n1: %+v\n4: %+v", i, l1[i], l4[i])
		}
	}
}

// TestCorruptFracClamped pins the Corrupt contract at the edges: frac <= 0
// is a guaranteed no-op (state, epoch and rng untouched), frac > 1 hits
// every node.
func TestCorruptFracClamped(t *testing.T) {
	g, ids := randomNetwork(134, 40, 0.25)
	e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 3400)
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	legit := e.Snapshot()
	epoch := e.Epoch()

	src := rng.New(3401)
	before := src.Int63()
	src = rng.New(3401)
	e.Corrupt(-0.5, CorruptAll, src)
	if got := e.Epoch(); got != epoch {
		t.Errorf("negative frac bumped epoch %d -> %d", epoch, got)
	}
	if got := src.Int63(); got != before {
		t.Error("negative frac consumed rng draws")
	}
	after := e.Snapshot()
	for u := range legit.HeadID {
		if after.HeadID[u] != legit.HeadID[u] || after.Density[u] != legit.Density[u] {
			t.Fatalf("negative frac corrupted node %d", u)
		}
	}

	e.Corrupt(2.5, CorruptState, rng.New(3402))
	if e.Epoch() == epoch {
		t.Error("frac > 1 did not bump the epoch")
	}
	for i, n := range e.nodes {
		if !n.dirty {
			t.Fatalf("frac > 1 skipped node %d", i)
		}
	}
	if _, err := e.RunUntilStable(500, 5); err != nil {
		t.Fatal(err)
	}
	healed := e.Snapshot()
	for u := range legit.HeadID {
		if healed.HeadID[u] != legit.HeadID[u] {
			t.Errorf("node %d not healed after frac > 1 corruption", u)
		}
	}
}

// TestDensityScaleDrivesReelection: scaling down a head's density makes
// it lose the ≺ election once the scaled value propagates — the online
// head-rotation primitive the energy subsystem drives — and scales stay
// aligned across churn arrivals.
func TestDensityScaleDrivesReelection(t *testing.T) {
	// A 5-node star: the hub has the dominant density and heads everyone.
	g := topology.New(5)
	for leaf := 1; leaf < 5; leaf++ {
		if err := g.AddEdge(0, leaf); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(g, []int64{10, 20, 30, 40, 50}, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunUntilStable(200, 5); err != nil {
		t.Fatal(err)
	}
	if !e.Node(0).IsHead() {
		t.Fatalf("hub did not head the star: head=%d", e.Node(0).HeadID())
	}
	hubDensity := e.Node(0).Density()

	// Drain the hub: its shared density drops to a tenth and a leaf takes
	// over headship of itself (leaves see no dominating neighbor anymore).
	if err := e.SetDensityScale(0, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunUntilStable(200, 5); err != nil {
		t.Fatal(err)
	}
	if got := e.Node(0).Density(); got >= hubDensity {
		t.Fatalf("scaled density %v not below %v", got, hubDensity)
	}
	if e.Node(0).IsHead() && e.Node(0).Density() > e.Node(1).Density() {
		t.Fatalf("drained hub still dominates: hub %v vs leaf %v", e.Node(0).Density(), e.Node(1).Density())
	}
	if got := e.DensityScale(0); got != 0.1 {
		t.Fatalf("DensityScale(0) = %v, want 0.1", got)
	}

	// Churn arrival: the scale array grows in lockstep, newcomer at 1.
	g.AddNode()
	if err := g.AddEdge(5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(60); err != nil {
		t.Fatal(err)
	}
	if got := e.DensityScale(5); got != 1 {
		t.Fatalf("arrival scale %v, want 1", got)
	}
	if err := e.SetDensityScale(99, 1); err == nil {
		t.Fatal("out-of-range scale index accepted")
	}
}

// TestChurnKindString pins how a ledger episode's kind set prints under
// %v: the empty set, one kind, and a set in bit order.
func TestChurnKindString(t *testing.T) {
	for _, tc := range []struct {
		kinds ChurnKind
		want  string
	}{
		{0, "none"},
		{ChurnAttack, "attack"},
		{ChurnCrash | ChurnJoin | ChurnWake, "join|crash|wake"},
	} {
		if got := tc.kinds.String(); got != tc.want {
			t.Errorf("ChurnKind(%#x).String() = %q, want %q", uint8(tc.kinds), got, tc.want)
		}
	}
}

// recordingGrid is the real grid with every edge switch recorded, each
// with what the transition's disruption episode held at that moment.
type recordingGrid struct {
	*topology.GridIndex
	e     *Engine
	calls []gridCall
}

// gridCall is one recorded switch. captured is whether the open episode
// already holds the node and every current neighbour as sites; status is
// the node's status at the call.
type gridCall struct {
	on       bool
	node     int
	captured bool
	status   NodeStatus
}

func (r *recordingGrid) record(on bool, i int) {
	d := &r.e.disrupt
	captured := d.active && d.siteSet[i]
	for _, v := range r.e.g.Neighbors(i) {
		captured = captured && d.siteSet[v]
	}
	r.calls = append(r.calls, gridCall{on: on, node: i, captured: captured, status: r.e.status[i]})
}

func (r *recordingGrid) Deactivate(i int) { r.record(false, i); r.GridIndex.Deactivate(i) }
func (r *recordingGrid) Reactivate(i int) { r.record(true, i); r.GridIndex.Reactivate(i) }

// TestLifecycleEdgesAndWakeDeadlines: the engine owns a node's lifecycle.
// Sleepers are scheduled with Sleep(i, until); one deadline each is voided
// by Wake, Kill, Reboot and Evict (one more is rescheduled after its
// Wake), and a Compact runs before any is due. WakeDue must then wake
// exactly the surviving scheduled sleepers, each at its deadline and not
// before, in scheduling order. Every transition runs in a fresh episode,
// and the recording grid shows each edge switch at the point the site
// capture needs: Deactivate once the sites hold the current neighbours
// (Kill, Sleep), Reactivate before the capture (Wake), Reactivate after a
// sleeper's restart (Reboot, Evict), and no switch for an alive node's
// reboot.
func TestLifecycleEdgesAndWakeDeadlines(t *testing.T) {
	tw := newTwin(t, 4300, 80, 0.2, Protocol{Order: cluster.OrderBasic, CacheTTL: 3}, true, 1)
	e := tw.e
	rg := &recordingGrid{GridIndex: tw.gi, e: e}
	e.SetGrid(rg)
	type want struct {
		on       bool
		captured bool
		status   NodeStatus
	}
	var (
		off       = want{false, true, StatusSleeping}
		offDead   = want{false, true, StatusDead}
		onWake    = want{true, false, StatusSleeping}
		onRestart = want{true, true, StatusAlive}
	)
	// do runs one transition of node i in a fresh episode and checks its
	// edge switches; a switch on before the capture must leave the
	// restored neighbours among the sites.
	do := func(what string, i int, op func() error, switches ...want) {
		t.Helper()
		e.disrupt.active = false
		rg.calls = nil
		if err := op(); err != nil {
			t.Fatalf("%s %d: %v", what, i, err)
		}
		if len(rg.calls) != len(switches) {
			t.Fatalf("%s %d: grid calls %+v, want %+v", what, i, rg.calls, switches)
		}
		for k, c := range rg.calls {
			if w := switches[k]; c.node != i || c.on != w.on || c.captured != w.captured || c.status != w.status {
				t.Fatalf("%s %d: grid call %+v, want %+v", what, i, c, w)
			}
		}
		if len(switches) == 1 && switches[0] == onWake {
			for _, v := range e.g.Neighbors(i) {
				if !e.disrupt.siteSet[v] {
					t.Fatalf("%s %d: restored neighbour %d is no site", what, i, v)
				}
			}
		}
	}
	rows := []struct {
		name    string
		until   int
		void    string // transition voiding the deadline before it is due
		resleep int    // deadline of a second Sleep after the void
		wake    int    // step WakeDue must wake the node at; 0: never
	}{
		{"due last", 7, "", 0, 7},
		{"due first", 4, "", 0, 4},
		{"due first, scheduled after", 4, "", 0, 4},
		{"voided by Wake", 5, "wake", 0, 0},
		{"voided by Kill", 5, "kill", 0, 0},
		{"voided by Reboot", 5, "reboot", 0, 0},
		{"voided by Evict", 5, "evict", 0, 0},
		{"rescheduled after Wake", 3, "wake", 6, 6},
		{"no deadline", 0, "", 0, 0},
	}
	// Row k sleeps node 70-5k: descending slots, so scheduling order is
	// not slot order. Every one has a neighbour to capture.
	ids := make([]int64, len(rows))
	for k, row := range rows {
		i := 70 - 5*k
		if len(e.g.Neighbors(i)) == 0 {
			t.Fatalf("%s: node %d has no neighbours", row.name, i)
		}
		ids[k] = e.ids[i]
		do("sleep", i, func() error { return e.Sleep(i, row.until) }, off)
	}
	for k, row := range rows {
		i, _ := e.Index(ids[k])
		switch row.void {
		case "wake":
			do("wake", i, func() error { return e.Wake(i) }, onWake)
		case "kill":
			do("kill", i, func() error { return e.Kill(i) }, offDead)
		case "reboot":
			do("reboot", i, func() error { return e.Reboot(i) }, onRestart)
		case "evict":
			do("evict", i, func() error { return e.Evict(i) }, onRestart)
		}
		if row.void != "" && e.wakeAt[i] != 0 {
			t.Fatalf("%s: deadline %d survives the void", row.name, e.wakeAt[i])
		}
		if row.resleep != 0 {
			do("sleep", i, func() error { return e.Sleep(i, row.resleep) }, off)
		}
	}
	do("reboot alive", 1, func() error { return e.Reboot(1) })
	r := e.CompactionRemap()
	if r.Dropped() != 1 {
		t.Fatalf("compaction drops %d slots, want the killed one", r.Dropped())
	}
	if err := tw.gi.Compact(r); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(r); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 8; step++ {
		rg.calls = nil
		if err := e.WakeDue(step); err != nil {
			t.Fatal(err)
		}
		var got, wantIDs []int64
		for _, c := range rg.calls {
			if !c.on || c.status != StatusSleeping {
				t.Fatalf("step %d: WakeDue made grid call %+v, want only wakes", step, c)
			}
			got = append(got, e.ids[c.node])
		}
		for k, row := range rows {
			if row.wake == step {
				wantIDs = append(wantIDs, ids[k])
			}
		}
		if !slices.Equal(got, wantIDs) {
			t.Fatalf("step %d: WakeDue woke %v, want %v", step, got, wantIDs)
		}
	}
	if i, _ := e.Index(ids[len(rows)-1]); e.Status(i) != StatusSleeping {
		t.Fatalf("the sleeper without a deadline is %s", e.Status(i))
	}
	if len(e.wakeList) != 0 {
		t.Fatalf("wake worklist keeps %v after every deadline passed", e.wakeList)
	}
}
