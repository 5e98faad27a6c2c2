package runtime

import (
	"errors"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
)

// TestEpochAdvancesExactlyWithChanges pins the cache-invalidation
// contract: the epoch moves iff shared state could have changed — on
// state-changing steps and Corrupt — and stays put across
// quiescent steps, so epoch-keyed caches are never stale and never
// rebuilt needlessly.
func TestEpochAdvancesExactlyWithChanges(t *testing.T) {
	g, ids := randomNetwork(3, 100, 0.15)
	e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 30)
	if e.Epoch() != 0 {
		t.Fatalf("fresh engine epoch %d, want 0", e.Epoch())
	}
	if _, err := e.RunUntilStable(1000, 5); err != nil {
		t.Fatal(err)
	}
	stable := e.Epoch()
	if stable == 0 {
		t.Fatal("stabilization advanced no epochs")
	}
	// Quiescent steps must not move the epoch.
	for i := 0; i < 10; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Epoch() != stable {
		t.Errorf("quiescent steps moved the epoch %d -> %d", stable, e.Epoch())
	}
	e.Corrupt(1, CorruptAll, rng.New(31))
	if e.Epoch() == stable {
		t.Error("Corrupt did not move the epoch")
	}
}

// TestPostStepHook: the hook runs once per step with the completed-step
// count, during Step and RunUntilStable alike; its error aborts the step,
// and nil uninstalls it.
func TestPostStepHook(t *testing.T) {
	g, ids := randomNetwork(4, 60, 0.2)
	e := mustEngine(t, g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, 40)
	var calls []int
	e.SetPostStep(func(step int) error {
		calls = append(calls, step)
		return nil
	})
	if err := runSteps(e, 3); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 || calls[0] != 1 || calls[2] != 3 {
		t.Fatalf("post-step calls = %v, want [1 2 3]", calls)
	}
	if _, err := e.RunUntilStable(500, 3); err != nil {
		t.Fatal(err)
	}
	if len(calls) <= 3 {
		t.Error("RunUntilStable did not drive the post-step hook")
	}
	boom := errors.New("boom")
	e.SetPostStep(func(int) error { return boom })
	if err := e.Step(); !errors.Is(err, boom) {
		t.Errorf("post-step error not propagated: %v", err)
	}
	e.SetPostStep(nil)
	if err := e.Step(); err != nil {
		t.Errorf("nil hook: %v", err)
	}
}
