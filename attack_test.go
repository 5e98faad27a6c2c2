package selfstab

import (
	"bytes"
	"testing"
)

// attackNet is churnNet with a data plane between the first alive nodes —
// the substrate every adversarial op needs.
func attackNet(t *testing.T, seed int64) *Network {
	t.Helper()
	net := churnNet(t, 80, seed)
	ids := firstAliveIDs(t, net, 4)
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 8,
		Flows: []Flow{
			CBRFlow(ids[0], ids[1], 0.5),
			PoissonFlow(ids[2], ids[3], 0.3),
		},
	}); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestDefendedLedgerIdentity: under a flood with both defenses firing,
// the extended accounting identity — every offered packet has exactly one
// fate, defense drops included — holds at every step boundary.
func TestDefendedLedgerIdentity(t *testing.T) {
	net := attackNet(t, 5150)
	if err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	cfg := DefenseConfig{HeadAdmission: true, HeadRate: 0.5, HeadBurst: 1, SourceCap: 1}
	if err := net.SetTrafficDefense(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := net.FloodHeads(8, 4); err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 5; seg++ {
		if err := net.Run(10); err != nil {
			t.Fatal(err)
		}
		ts, err := net.TrafficStats()
		if err != nil {
			t.Fatal(err)
		}
		checkTrafficLedger(t, ts)
	}
	ts, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.DropsAdmission == 0 && ts.DropsRateLimit == 0 {
		t.Errorf("defenses never fired under an 8-bot flood: %+v", ts)
	}
}

// TestSpawnFlowsKeepsLedger: appending flows mid-run preserves the
// delivery history — the before/after delta a flood is scored by.
func TestSpawnFlowsKeepsLedger(t *testing.T) {
	net := attackNet(t, 99)
	if err := net.Run(20); err != nil {
		t.Fatal(err)
	}
	before, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Delivered == 0 {
		t.Fatal("degenerate run: nothing delivered before the spawn")
	}
	ids := firstAliveIDs(t, net, 2)
	if err := net.SpawnFlows(CBRFlow(ids[0], ids[1], 1)); err != nil {
		t.Fatal(err)
	}
	after, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Delivered != before.Delivered || after.Offered != before.Offered {
		t.Errorf("spawn reset the ledger: %+v -> %+v", before, after)
	}
	if len(after.PerFlow) != len(before.PerFlow)+1 {
		t.Errorf("per-flow ledger has %d entries, want %d", len(after.PerFlow), len(before.PerFlow)+1)
	}
	if err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	ts, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, ts)
}

// TestFailedAttackOpsAreNotJournaled: an adversarial op that errors
// mutates nothing and leaves no journal entry, so a snapshot after the
// failed call still replays cleanly.
func TestFailedAttackOpsAreNotJournaled(t *testing.T) {
	net := attackNet(t, 321)
	if err := net.Run(4); err != nil {
		t.Fatal(err)
	}
	before := fingerprint(t, net)
	ids := firstAliveIDs(t, net, 1)
	if _, err := net.FloodHeads(0, 1); err == nil {
		t.Fatal("zero-bot flood accepted")
	}
	if _, err := net.FloodHeads(3, -1); err == nil {
		t.Fatal("negative flood rate accepted")
	}
	if err := net.InflateDensity(0, ids[0]); err == nil {
		t.Fatal("zero density scale accepted")
	}
	if err := net.InflateDensity(4, 987654); err == nil {
		t.Fatal("unknown liar id accepted")
	}
	if err := net.InflateDensity(4, ids[0], ids[0]); err == nil {
		t.Fatal("duplicate liar id accepted")
	}
	if err := net.EvictNodes(987654); err == nil {
		t.Fatal("unknown eviction id accepted")
	}
	if err := net.EvictNodes(); err == nil {
		t.Fatal("empty eviction accepted")
	}
	if _, err := net.SybilJoin(987654, 3, 0.05); err == nil {
		t.Fatal("unknown sybil target accepted")
	}
	if _, err := net.SybilJoin(ids[0], 3, 0); err == nil {
		t.Fatal("zero sybil spread accepted")
	}
	if err := net.SetTrafficDefense(DefenseConfig{HeadAdmission: true}); err == nil {
		t.Fatal("head admission without rate/burst accepted")
	}
	requireSameWorld(t, "after failed attack ops", before, fingerprint(t, net))
	var buf bytes.Buffer
	if err := net.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameWorld(t, "restored after failed attack ops", before, fingerprint(t, restored))
}

// TestAttackRequiresTraffic: the traffic-borne ops fail cleanly on a
// world with no data plane.
func TestAttackRequiresTraffic(t *testing.T) {
	net := churnNet(t, 30, 8)
	if _, err := net.FloodHeads(2, 1); err == nil {
		t.Fatal("flood without a data plane accepted")
	}
	if err := net.SetTrafficDefense(DefenseConfig{SourceCap: 1}); err == nil {
		t.Fatal("defense without a data plane accepted")
	}
	if err := net.SpawnFlows(CBRFlow(net.IDs()[0], net.IDs()[1], 1)); err == nil {
		t.Fatal("spawn without a data plane accepted")
	}
}

// TestEvictionRestartsCold: an evicted byzantine node loses its inflated
// density and its headship; the honest protocol re-integrates it.
func TestEvictionRestartsCold(t *testing.T) {
	net := attackNet(t, 777)
	if err := net.Run(4); err != nil {
		t.Fatal(err)
	}
	liars := firstAliveIDs(t, net, 2)
	if err := net.InflateDensity(6, liars...); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	detected := net.ImplausibleNodes(1.1)
	if len(detected) != len(liars) {
		t.Fatalf("detected %v, want the %d liars %v", detected, len(liars), liars)
	}
	if err := net.EvictNodes(detected...); err != nil {
		t.Fatal(err)
	}
	if left := net.ImplausibleNodes(1.1); len(left) != 0 {
		t.Fatalf("still implausible after eviction: %v", left)
	}
	if _, err := net.Stabilize(5000); err != nil {
		t.Fatal(err)
	}
	// The convergence ledger carries the attack episodes.
	found := false
	for _, d := range net.ConvergenceStats().Disruptions {
		if d.Kinds&ChurnAttack != 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no ChurnAttack episode in the convergence ledger")
	}
}
