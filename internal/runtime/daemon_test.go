package runtime

import (
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/metric"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
)

func TestDaemonValidation(t *testing.T) {
	g, ids := randomNetwork(1, 20, 0.3)
	for _, p := range []float64{-0.1, 1.5} {
		proto := Protocol{Order: cluster.OrderBasic, ActivationProb: p}
		if _, err := New(g, ids, proto, radio.Perfect{}, rng.New(1)); err == nil {
			t.Errorf("activation prob %v accepted", p)
		}
	}
}

// TestRandomizedDaemonConverges: under a daemon that schedules each node
// with probability 0.5 per step, the protocol still converges to the same
// fixpoint as the synchronous oracle (the paper's execution semantics only
// require weak fairness).
func TestRandomizedDaemonConverges(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g, ids := randomNetwork(seed, 70, 0.18)
		proto := Protocol{Order: cluster.OrderBasic, ActivationProb: 0.5}
		e := mustEngine(t, g, ids, proto, radio.Perfect{}, seed+2000)
		if _, err := e.RunUntilStable(3000, 20); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
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
				t.Errorf("seed %d: node %d head = %d, oracle %d", seed, u, got.Head[u], want.Head[u])
			}
		}
	}
}

// TestRandomizedDaemonSelfStabilizes: corruption recovery must also hold
// under the randomized daemon.
func TestRandomizedDaemonSelfStabilizes(t *testing.T) {
	g, ids := randomNetwork(5, 60, 0.2)
	proto := Protocol{Order: cluster.OrderBasic, ActivationProb: 0.3}
	e := mustEngine(t, g, ids, proto, radio.Perfect{}, 2100)
	if _, err := e.RunUntilStable(5000, 20); err != nil {
		t.Fatal(err)
	}
	legit := e.Snapshot()
	e.Corrupt(1.0, CorruptAll, rng.New(2101))
	if _, err := e.RunUntilStable(5000, 20); err != nil {
		t.Fatal(err)
	}
	healed := e.Snapshot()
	for u := range legit.HeadID {
		if healed.HeadID[u] != legit.HeadID[u] {
			t.Errorf("node %d head not healed under randomized daemon", u)
		}
	}
}

// TestSlowDaemonSlowerThanSynchronous: a sparse daemon takes (weakly) more
// steps to stabilize than the synchronous one on the same instance.
func TestSlowDaemonSlowerThanSynchronous(t *testing.T) {
	g, ids := randomNetwork(9, 80, 0.15)
	stepsFor := func(p float64) int {
		proto := Protocol{Order: cluster.OrderBasic, ActivationProb: p}
		e := mustEngine(t, g, ids, proto, radio.Perfect{}, 2200)
		at, err := e.RunUntilStable(5000, 20)
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	sync := stepsFor(1)
	sparse := stepsFor(0.2)
	if sparse < sync {
		t.Errorf("sparse daemon stabilized faster (%d) than synchronous (%d)", sparse, sync)
	}
}

// TestActivationZeroIsSynchronous: 0 is documented to mean "synchronous"
// (the zero value must be useful).
func TestActivationZeroIsSynchronous(t *testing.T) {
	g, ids := randomNetwork(11, 40, 0.25)
	a := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 2300)
	b := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic, ActivationProb: 1}, radio.Perfect{}, 2300)
	if err := runSteps(a, 20); err != nil {
		t.Fatal(err)
	}
	if err := runSteps(b, 20); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	for u := range sa.HeadID {
		if sa.HeadID[u] != sb.HeadID[u] {
			t.Fatal("ActivationProb 0 and 1 diverged")
		}
	}
}
