package selfstab

import "testing"

// energyNet builds a stabilized network configured for the energy
// subsystem (cache TTL for depletion-driven departures).
func energyNet(t testing.TB, nodes int, seed int64, opts ...Option) *Network {
	t.Helper()
	opts = append([]Option{
		WithSeed(seed), WithRange(0.14), WithCacheTTL(4), WithStableWindow(6),
	}, opts...)
	net, err := NewRandomNetwork(nodes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(2000); err != nil {
		t.Fatal(err)
	}
	return net
}

// hotspotDrainConfig is the shared closed-loop scenario: a many-to-one
// convergecast concentrates forwarding on the relays toward the sink, and
// the cost schedule makes both relaying and headship expensive enough to
// kill batteries within a few hundred steps.
func attachHotspotDrain(t testing.TB, net *Network, rotation bool) {
	t.Helper()
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 16,
		Flows:    []Flow{HotspotFlow(ids[0], 25, 0.3)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachEnergy(EnergyConfig{
		Capacity:       0.6,
		IdleHeadCost:   0.002,
		IdleMemberCost: 0.0002,
		SleepCost:      0.00002,
		TxCost:         0.001,
		RxCost:         0.0004,
		Rotation:       rotation,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEnergyClosedLoop is the acceptance contract of the energy
// subsystem: hotspot traffic drains the relay batteries, the first
// depletion is killed through the churn machinery and therefore shows up
// as a departure disruption episode in ConvergenceStats, and enabling the
// energy-aware rotation metric measurably extends the first-death step on
// the very same seed — by spreading the burden: while everyone still
// lives, the worst-off battery is fuller with rotation than without.
func TestEnergyClosedLoop(t *testing.T) {
	// midStep is a fixed step before the plain run's first death.
	const midStep = 200
	run := func(rotation bool) (mid, end EnergyStats, cs ConvergenceStats) {
		net := energyNet(t, 150, 99)
		attachHotspotDrain(t, net, rotation)
		stats := func(steps int) EnergyStats {
			if err := net.Run(steps); err != nil {
				t.Fatal(err)
			}
			es, err := net.EnergyStats()
			if err != nil {
				t.Fatal(err)
			}
			return es
		}
		mid = stats(midStep)
		end = stats(600 - midStep)
		return mid, end, net.ConvergenceStats()
	}

	plainMid, plain, cs := run(false)
	if plain.FirstDeathStep < 0 || plain.Depletions == 0 {
		t.Fatalf("hotspot drain killed nobody: %+v", plain)
	}
	if plain.FirstDeathStep <= midStep {
		t.Fatalf("first death at step %d, not after the mid-run reading at %d", plain.FirstDeathStep, midStep)
	}
	if plain.DrainTx == 0 || plain.DrainRx == 0 {
		t.Fatalf("traffic did not couple into the drain: %+v", plain)
	}
	// Every depletion went through the churn machinery: the ledger holds
	// a departure episode that opened at (or folded in) the first death.
	found := false
	for _, d := range cs.Disruptions {
		if d.Kinds&ChurnLeave != 0 && d.Step <= plain.FirstDeathStep &&
			(d.StepsToStabilize > 0 || d.Ops > 0) {
			found = true
			break
		}
	}
	if !found && !cs.Open {
		t.Fatalf("first depletion (step %d) left no departure episode: %+v", plain.FirstDeathStep, cs)
	}

	rotatedMid, rotated, _ := run(true)
	if rotatedMid.MinRemaining <= plainMid.MinRemaining {
		t.Errorf("rotation did not spread the burden: worst battery at step %d is %.4f (rotated) vs %.4f (plain)",
			midStep, rotatedMid.MinRemaining, plainMid.MinRemaining)
	}
	if rotated.FirstDeathStep >= 0 && rotated.FirstDeathStep <= plain.FirstDeathStep {
		t.Errorf("rotation did not extend lifetime: first death %d (rotated) vs %d (plain)",
			rotated.FirstDeathStep, plain.FirstDeathStep)
	}
	if rotated.Depletions >= plain.Depletions {
		t.Errorf("rotation did not reduce depletions: %d vs %d", rotated.Depletions, plain.Depletions)
	}
	if !rotated.Rotation || plain.Rotation {
		t.Errorf("rotation flag not reported: %v / %v", rotated.Rotation, plain.Rotation)
	}
}

// TestEnergyVerifyUnderRotation: the legitimacy predicate stays exact
// while rotation scales the shared densities — Verify checks against the
// battery-weighted oracle, and a stabilized rotating network passes it.
func TestEnergyVerifyUnderRotation(t *testing.T) {
	net := energyNet(t, 120, 7)
	if err := net.AttachEnergy(EnergyConfig{
		Capacity:       1,
		IdleHeadCost:   0.004,
		IdleMemberCost: 0.0004,
		Rotation:       true,
		RotationLevels: 4,
	}); err != nil {
		t.Fatal(err)
	}
	// Run long enough for several level crossings (head level drops every
	// 1/(4*0.004) ≈ 62 steps), then let the re-election settle.
	if err := net.Run(150); err != nil {
		t.Fatal(err)
	}
	net.DetachEnergy() // freeze the batteries so the scales stop moving
	if _, err := net.Stabilize(3000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatalf("rotating network not legitimate against the scaled oracle: %v", err)
	}
	es, err := net.EnergyStats()
	if err != nil {
		t.Fatal(err)
	}
	if es.DrainHead == 0 || es.HeadShare == 0 {
		t.Fatalf("no head drain recorded: %+v", es)
	}
}

// TestEnergySleepSaves: duty-cycling a third of the population for a
// stretch must leave the network with more remaining energy than the same
// run without sleep — SleepNodes finally saves battery.
func TestEnergySleepSaves(t *testing.T) {
	run := func(sleep bool) EnergyStats {
		net := energyNet(t, 120, 55)
		if err := net.AttachEnergy(EnergyConfig{
			IdleHeadCost:   0.002,
			IdleMemberCost: 0.0005,
			SleepCost:      0.00002,
		}); err != nil {
			t.Fatal(err)
		}
		ids := net.IDs()
		var down []int64
		for i := 0; i < len(ids); i += 3 {
			down = append(down, ids[i])
		}
		if sleep {
			if err := net.SleepNodes(down...); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Run(300); err != nil {
			t.Fatal(err)
		}
		if sleep {
			if err := net.WakeNodes(down...); err != nil {
				t.Fatal(err)
			}
			if err := net.Run(20); err != nil {
				t.Fatal(err)
			}
		}
		es, err := net.EnergyStats()
		if err != nil {
			t.Fatal(err)
		}
		return es
	}
	awake := run(false)
	slept := run(true)
	if slept.SleepSteps == 0 || slept.DrainSleep == 0 {
		t.Fatalf("sleep run recorded no sleep exposure: %+v", slept)
	}
	if slept.TotalDrain >= awake.TotalDrain {
		t.Errorf("duty-cycling saved nothing: drain %v (slept) vs %v (awake)",
			slept.TotalDrain, awake.TotalDrain)
	}
	if slept.MeanRemaining <= awake.MeanRemaining {
		t.Errorf("duty-cycling left less energy: mean %v (slept) vs %v (awake)",
			slept.MeanRemaining, awake.MeanRemaining)
	}
}

// TestEnergyPhaseAllocationFree is the steady-state allocation contract
// of the energy phase: with traffic-coupled drain and rotation active
// (including at least one level crossing during warm-up, which installs
// the engine's scale array), the per-step battery pass allocates nothing.
func TestEnergyPhaseAllocationFree(t *testing.T) {
	net := energyNet(t, 400, 321, WithRange(0.1))
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 16,
		Flows:    []Flow{HotspotFlow(ids[0], 20, 0.2)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachEnergy(EnergyConfig{
		Capacity:       100, // nobody depletes: kills are the allocating slow path
		IdleHeadCost:   0.8, // a level crossing every few steps keeps rotation hot
		IdleMemberCost: 0.4,
		TxCost:         0.01,
		RxCost:         0.01,
		Rotation:       true,
		RotationLevels: 50,
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(60); err != nil { // warm up: scale array installed, scratch grown
		t.Fatal(err)
	}
	step := net.StepCount()
	allocs := testing.AllocsPerRun(50, func() {
		step++
		if err := net.energy.Step(step); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("energy phase allocates %.2f/op at steady state, want 0", allocs)
	}
}

// TestEnergyAPIValidation covers the error surface of the public calls.
func TestEnergyAPIValidation(t *testing.T) {
	noTTL, err := NewRandomNetwork(20, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := noTTL.AttachEnergy(EnergyConfig{}); err == nil {
		t.Error("energy without WithCacheTTL accepted")
	}
	if _, err := noTTL.EnergyStats(); err == nil {
		t.Error("EnergyStats before attach accepted")
	}
	if _, err := noTTL.EnergyRemaining(); err == nil {
		t.Error("EnergyRemaining before attach accepted")
	}

	net := energyNet(t, 20, 2)
	if err := net.AttachEnergy(EnergyConfig{Capacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	if err := net.AttachEnergy(EnergyConfig{TxCost: -1}); err == nil {
		t.Error("negative cost accepted")
	}
	if err := net.AttachEnergy(EnergyConfig{Rotation: true, RotationLevels: 1}); err == nil {
		t.Error("degenerate rotation quantization accepted")
	}
	if err := net.AttachEnergy(EnergyConfig{Rotation: true, RotationLevels: 2000}); err == nil {
		t.Error("rotation quantization beyond the level-array range accepted")
	}
	if err := net.AttachEnergy(EnergyConfig{}); err != nil {
		t.Errorf("all-default config rejected: %v", err)
	}
	if es, err := net.EnergyStats(); err != nil || es.Steps != 0 {
		t.Errorf("fresh ledger: %+v, %v", es, err)
	}
}

// TestEnergyArrivalsGetFullBatteries: churn arrivals join the battery
// model with a full charge and start draining immediately.
func TestEnergyArrivalsGetFullBatteries(t *testing.T) {
	net := energyNet(t, 60, 13)
	if err := net.AttachEnergy(EnergyConfig{IdleMemberCost: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNodes([]Point{{X: 0.5, Y: 0.5}}); err != nil {
		t.Fatal(err)
	}
	rem, err := net.EnergyRemaining()
	if err != nil {
		t.Fatal(err)
	}
	if got := rem[len(rem)-1]; got != 1 {
		t.Fatalf("arrival battery %v, want 1", got)
	}
	if err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	rem, err = net.EnergyRemaining()
	if err != nil {
		t.Fatal(err)
	}
	if got := rem[len(rem)-1]; got >= 1 {
		t.Fatalf("arrival never drained: %v", got)
	}
}

// TestEnergyAttachBaselinesTrafficHistory: attaching batteries to a
// network whose data plane has already been forwarding for a while must
// not charge that history as one giant first-step drain — the counters
// are baselined at attach and only post-attach activity costs energy.
func TestEnergyAttachBaselinesTrafficHistory(t *testing.T) {
	net := energyNet(t, 120, 77)
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 16,
		Flows:    []Flow{HotspotFlow(ids[0], 15, 0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(200); err != nil { // plenty of pre-battery history
		t.Fatal(err)
	}
	if err := net.AttachEnergy(EnergyConfig{TxCost: 0.001, RxCost: 0.0004, IdleMemberCost: 1e-6, IdleHeadCost: 1e-6}); err != nil {
		t.Fatal(err)
	}
	if err := net.Step(); err != nil {
		t.Fatal(err)
	}
	es, err := net.EnergyStats()
	if err != nil {
		t.Fatal(err)
	}
	if es.Depletions != 0 {
		t.Fatalf("pre-attach traffic history depleted %d nodes in one step", es.Depletions)
	}
	// One step of this workload moves at most a few hundred packets
	// network-wide; 200 steps of history would have charged ~100x that.
	if es.DrainTx > 0.5 {
		t.Fatalf("first step charged %.3f tx drain — traffic history was not baselined", es.DrainTx)
	}
}

// TestEnergyReattachResetsRotationScales: replacing a rotating model
// (fresh full batteries) must clear the previous model's density scales —
// a formerly drained head starts the new run unscaled.
func TestEnergyReattachResetsRotationScales(t *testing.T) {
	net := energyNet(t, 80, 31)
	if err := net.AttachEnergy(EnergyConfig{
		IdleHeadCost:   0.05, // fast level crossings
		IdleMemberCost: 0.02,
		Rotation:       true,
		RotationLevels: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(30); err != nil { // several crossings: scales < 1 exist
		t.Fatal(err)
	}
	scaled := 0
	for i := 0; i < net.N(); i++ {
		if net.engine.DensityScale(i) < 1 {
			scaled++
		}
	}
	if scaled == 0 {
		t.Fatal("warm-up produced no rotation scaling; test premise broken")
	}
	if err := net.AttachEnergy(EnergyConfig{
		IdleHeadCost:   0.05,
		IdleMemberCost: 0.02,
		Rotation:       true,
		RotationLevels: 4,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.N(); i++ {
		if got := net.engine.DensityScale(i); got != 1 {
			t.Fatalf("node %d kept stale scale %v after re-attach with full batteries", i, got)
		}
	}
}

// TestBuildHierarchyMatchesClustersUnderRotation: with energy-aware
// rotation active, the level-0 fixpoint must elect against the same
// battery-weighted densities as the live protocol — the two agree on a
// stabilized network even while scales are installed.
func TestBuildHierarchyMatchesClustersUnderRotation(t *testing.T) {
	net := energyNet(t, 150, 7)
	if err := net.AttachEnergy(EnergyConfig{
		IdleHeadCost:   0.05, // fast level crossings
		IdleMemberCost: 0.02,
		Rotation:       true,
		RotationLevels: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(30); err != nil {
		t.Fatal(err)
	}
	scaled := 0
	for i := range net.N() {
		if net.engine.DensityScale(i) < 1 {
			scaled++
		}
	}
	if scaled == 0 {
		t.Fatal("warm-up produced no rotation scaling; test premise broken")
	}
	net.DetachEnergy() // freeze the scales, then let the election settle
	checkLevel0(t, net)
}
