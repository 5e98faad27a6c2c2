package selfstab

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkEnergyStep is the energy layer row: one Δ(τ) step of a
// quiescent network carrying a convergecast workload while the battery
// model charges every node's role and radio activity, with energy-aware
// rotation enabled. The protocol is at rest, so the step is the traffic
// and energy phases; the sizes are the ones the layer runs at (1000 is
// the historical headline, 20 000 the dataplane workload, 50 000 serve),
// at the constant mean degree of the 1000-node row. The battery pass
// itself must add zero steady-state allocations (see
// TestEnergyPhaseAllocationFree); compare against BenchmarkTrafficStep1000
// for the cost of the accounting itself.
func BenchmarkEnergyStep(b *testing.B) {
	for _, n := range []int{1000, 20000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchEnergyStep(b, n) })
	}
}

func benchEnergyStep(b *testing.B, n int) {
	net, err := NewRandomNetwork(n,
		WithSeed(1),
		WithRange(0.1*math.Sqrt(1000/float64(n))),
		WithCacheTTL(8),
		WithStableWindow(10),
	)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Stabilize(5000); err != nil {
		b.Fatal(err)
	}
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 32,
		Budget:   2,
		Flows:    []Flow{HotspotFlow(ids[0], 80, 0.2)},
	}); err != nil {
		b.Fatal(err)
	}
	if err := net.AttachEnergy(EnergyConfig{
		Capacity: 1000, // nobody depletes inside the measurement window
		Rotation: true,
	}); err != nil {
		b.Fatal(err)
	}
	// Warm up: grow every reusable scratch and install the scale array.
	if err := net.Run(60); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	es, err := net.EnergyStats()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(es.TotalDrain/float64(es.Steps), "drain/step")
}
