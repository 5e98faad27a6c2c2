package runtime

import (
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
)

// BenchmarkStep1000 measures one Δ(τ) protocol step at paper scale
// (1000 nodes, perfect medium): broadcast, ingest, three guards per node.
func BenchmarkStep1000(b *testing.B) {
	g, ids := randomNetwork(1, 1000, 0.1)
	e, err := New(g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	// Warm the caches so the steady-state cost is measured.
	if err := runSteps(e, 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep1000Fusion adds the 2-hop fusion scan per step.
func BenchmarkStep1000Fusion(b *testing.B) {
	g, ids := randomNetwork(2, 1000, 0.1)
	proto := Protocol{Order: cluster.OrderBasic, Fusion: true}
	e, err := New(g, ids, proto, radio.Perfect{}, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	if err := runSteps(e, 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStabilize measures a full cold-start stabilization of a
// 300-node network.
func BenchmarkColdStabilize(b *testing.B) {
	g, ids := randomNetwork(3, 300, 0.12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(3))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.RunUntilStable(5000, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures corruption-to-legitimacy healing time cost.
func BenchmarkRecovery(b *testing.B) {
	g, ids := randomNetwork(4, 300, 0.12)
	e, err := New(g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunUntilStable(5000, 5); err != nil {
		b.Fatal(err)
	}
	faults := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Corrupt(1.0, CorruptAll, faults)
		if _, err := e.RunUntilStable(5000, 5); err != nil {
			b.Fatal(err)
		}
	}
}
