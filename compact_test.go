package selfstab

import (
	"reflect"
	"testing"
)

// compactObservables gathers every identifier-keyed ledger a compaction
// must leave untouched.
type compactObservables struct {
	clusters []Cluster
	stats    Stats
	conv     ConvergenceStats
	traffic  TrafficStats
	energy   EnergyStats
	alive    int
	sleeping int
}

func observe(t *testing.T, net *Network) compactObservables {
	t.Helper()
	ts, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	es, err := net.EnergyStats()
	if err != nil {
		t.Fatal(err)
	}
	o := compactObservables{
		clusters: net.Clusters(),
		stats:    net.Stats(),
		conv:     net.ConvergenceStats(),
		traffic:  ts,
		energy:   es,
	}
	o.alive, o.sleeping, _ = net.Population()
	return o
}

func compareObservables(t *testing.T, label string, a, b compactObservables) {
	t.Helper()
	if !reflect.DeepEqual(a.clusters, b.clusters) {
		t.Fatalf("%s: clusterings diverged", label)
	}
	if a.stats != b.stats {
		t.Fatalf("%s: stats diverged:\n%+v\n%+v", label, a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.conv, b.conv) {
		t.Fatalf("%s: convergence ledgers diverged:\n%+v\n%+v", label, a.conv, b.conv)
	}
	if !reflect.DeepEqual(a.traffic, b.traffic) {
		t.Fatalf("%s: traffic ledgers diverged:\n%+v\n%+v", label, a.traffic, b.traffic)
	}
	if !reflect.DeepEqual(a.energy, b.energy) {
		t.Fatalf("%s: energy ledgers diverged:\n%+v\n%+v", label, a.energy, b.energy)
	}
	if a.alive != b.alive || a.sleeping != b.sleeping {
		t.Fatalf("%s: operating populations diverged: %d/%d vs %d/%d",
			label, a.alive, a.sleeping, b.alive, b.sleeping)
	}
}

// compactNet is a churn + traffic + energy network for the compaction
// oracles: enough departures that dead slots actually accumulate.
func compactNet(t *testing.T, seed int64) *Network {
	t.Helper()
	net := churnNet(t, 220, seed)
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 8,
		Flows:    mixedWorkload(net, 12),
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachEnergy(EnergyConfig{Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachChurn(ChurnConfig{
		ArrivalRate:   0.3,
		DepartureRate: 0.3,
		CrashRate:     0.1,
		SleepRate:     0.1,
		SleepSteps:    6,
	}); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestCompactStatsInvariant: calling Compact between steps changes no
// identifier-keyed observable — Stats, TrafficStats, EnergyStats,
// ConvergenceStats, Clusters and the operating population all read
// identically before and after, while N() shrinks by the dead count.
func TestCompactStatsInvariant(t *testing.T) {
	net := compactNet(t, 515)
	if err := net.Run(140); err != nil {
		t.Fatal(err)
	}
	_, _, dead := net.Population()
	if dead < 5 {
		t.Fatalf("churn produced only %d dead slots; test needs more", dead)
	}
	before := observe(t, net)
	nBefore := net.N()
	removed, err := net.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed != dead {
		t.Fatalf("Compact removed %d slots, want %d", removed, dead)
	}
	if net.N() != nBefore-dead {
		t.Fatalf("N() = %d after compacting %d of %d", net.N(), dead, nBefore)
	}
	compareObservables(t, "across Compact", before, observe(t, net))
	if _, _, d := net.Population(); d != 0 {
		t.Fatalf("%d dead slots survived Compact", d)
	}
	// A second Compact with nothing to reclaim is a no-op.
	if removed, err := net.Compact(); err != nil || removed != 0 {
		t.Fatalf("idle Compact: removed %d, err %v", removed, err)
	}
}

// TestCompactTwinEquivalence is the strong compaction oracle: two
// identical churn + traffic + energy runs, one compacting repeatedly
// mid-run, must stay bit-identical in every identifier-keyed observable
// for the rest of the execution — compaction may renumber indices but
// must never alter what the simulation computes.
func TestCompactTwinEquivalence(t *testing.T) {
	plain := compactNet(t, 616)
	compacted := compactNet(t, 616)
	for seg := 0; seg < 4; seg++ {
		if err := plain.Run(45); err != nil {
			t.Fatal(err)
		}
		if err := compacted.Run(45); err != nil {
			t.Fatal(err)
		}
		if _, err := compacted.Compact(); err != nil {
			t.Fatal(err)
		}
		compareObservables(t, "mid-run segment", observe(t, plain), observe(t, compacted))
	}
	// Let both settle and check the final clustering is legitimate.
	plain.DetachChurn()
	compacted.DetachChurn()
	plain.DetachEnergy()
	compacted.DetachEnergy()
	if _, err := plain.Stabilize(3000); err != nil {
		t.Fatal(err)
	}
	if _, err := compacted.Stabilize(3000); err != nil {
		t.Fatal(err)
	}
	compareObservables(t, "final", observe(t, plain), observe(t, compacted))
	if err := compacted.Verify(); err != nil {
		t.Fatalf("compacted twin failed verification: %v", err)
	}
}

// TestAutoCompactBoundsMemory: under sustained balanced add/remove churn
// with an auto-compaction threshold, the dense-array length tracks the
// operating population instead of cumulative arrivals.
func TestAutoCompactBoundsMemory(t *testing.T) {
	net := churnNet(t, 150, 717)
	if err := net.SetAutoCompact(0.25); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachChurn(ChurnConfig{
		ArrivalRate:   1.0,
		DepartureRate: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	const steps = 800
	if err := net.Run(steps); err != nil {
		t.Fatal(err)
	}
	alive, sleeping, dead := net.Population()
	operating := alive + sleeping
	// ~steps × rate arrivals passed through; without recycling N() would
	// sit near 150 + 800. With a 25% threshold it must stay within
	// operating/(1-0.25) plus one step's worth of churn slack.
	bound := operating*4/3 + 16
	if net.N() > bound {
		t.Fatalf("N() = %d (operating %d, dead %d): dense arrays not bounded by the operating population",
			net.N(), operating, dead)
	}
	if net.N() >= 150+steps/2 {
		t.Fatalf("N() = %d tracks cumulative arrivals", net.N())
	}
	// The engine must still be healthy: detach churn, settle, verify.
	net.DetachChurn()
	if _, err := net.Stabilize(3000); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSetAutoCompactValidation rejects out-of-range thresholds.
func TestSetAutoCompactValidation(t *testing.T) {
	net := churnNet(t, 30, 818)
	if err := net.SetAutoCompact(-0.1); err == nil {
		t.Error("negative threshold accepted")
	}
	if err := net.SetAutoCompact(1.5); err == nil {
		t.Error("threshold above 1 accepted")
	}
	if err := net.SetAutoCompact(0); err != nil {
		t.Error(err)
	}
}

// TestNetworkSparseMatchesDense: the public-layer twin of the runtime
// equivalence oracle — a full churn + traffic + energy run must produce
// identical ledgers with frontier stepping on and off.
func TestNetworkSparseMatchesDense(t *testing.T) {
	build := func(sparse bool, workers int) compactObservables {
		net := compactNet(t, 919)
		net.SetParallelism(workers)
		if err := net.engine.SetSparse(sparse); err != nil {
			t.Fatal(err)
		}
		if !sparse && net.SparseStepping() {
			t.Fatal("dense twin still sparse")
		}
		if err := net.Run(130); err != nil {
			t.Fatal(err)
		}
		net.DetachChurn()
		if _, err := net.Stabilize(3000); err != nil {
			t.Fatal(err)
		}
		return observe(t, net)
	}
	dense := build(false, 1)
	for _, workers := range []int{1, 4} {
		compareObservables(t, "sparse vs dense", dense, build(true, workers))
	}
}
