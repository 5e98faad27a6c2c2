package selfstab

import "testing"

// compactNet is a churn + traffic + energy network: enough departures
// that dead slots actually accumulate, and every phase of the step path
// fires.
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
	before := fingerprint(t, net)
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
	requireSameWorld(t, "across Compact", before.compacted(), fingerprint(t, net))
	if _, _, d := net.Population(); d != 0 {
		t.Fatalf("%d dead slots survived Compact", d)
	}
	// A second Compact with nothing to reclaim is a no-op.
	if removed, err := net.Compact(); err != nil || removed != 0 {
		t.Fatalf("idle Compact: removed %d, err %v", removed, err)
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
