package selfstab

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"selfstab/internal/rng"
	"selfstab/internal/routing"
)

// benchStableNet builds and stabilizes a network once per benchmark.
func benchStableNet(b *testing.B, nodes int) *Network {
	b.Helper()
	net, err := NewRandomNetwork(nodes, WithSeed(1), WithRange(0.1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Stabilize(2000); err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkRouteCached measures a Route query against the epoch-cached
// hierarchical table on a quiescent network: the skeleton is built once,
// the trees the query mix touches fill during the first pass over it, and
// from then on an iteration is a table walk — two allocations, the path
// in indices and the path in identifiers.
func BenchmarkRouteCached(b *testing.B) {
	net := benchStableNet(b, 500)
	ids := net.IDs()
	if _, err := net.Route(ids[0], ids[len(ids)-1]); err != nil && err != ErrUnreachable {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := ids[i%len(ids)]
		dst := ids[(i*31+len(ids)/2)%len(ids)]
		if _, err := net.Route(src, dst); err != nil && err != ErrUnreachable {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrafficStepMovingEpoch2000 is the bench/ "mixed" recipe as a Go
// benchmark: 2 000 nodes at mean degree 10 carrying 250 flows at rate 0.1
// with energy rotation and churn (1 arrival, 0.5 departures, 0.5 crashes,
// 1 sleep a step), so the engine epoch moves nearly every step and each
// step's forwarding runs against a freshly reset routing table. What it
// gates is that such a step pays for the trees its packets touch, not for
// a table build.
func BenchmarkTrafficStepMovingEpoch2000(b *testing.B) {
	const nodes = 2000
	net, err := NewRandomNetwork(nodes, WithSeed(1),
		WithRange(math.Sqrt(10/(math.Pi*nodes))), WithCacheTTL(8))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Stabilize(5000); err != nil {
		b.Fatal(err)
	}
	ids := net.IDs()
	flows := make([]Flow, 0, 250)
	for i := 0; i < cap(flows); i++ {
		src, dst := ids[(i*17)%nodes], ids[(i*41+nodes/3)%nodes]
		if i%2 == 0 {
			flows = append(flows, CBRFlow(src, dst, 0.1))
		} else {
			flows = append(flows, PoissonFlow(src, dst, 0.1))
		}
	}
	if err := net.AttachTraffic(TrafficConfig{Flows: flows}); err != nil {
		b.Fatal(err)
	}
	if err := net.AttachEnergy(EnergyConfig{Rotation: true}); err != nil {
		b.Fatal(err)
	}
	if err := net.AttachChurn(ChurnConfig{
		ArrivalRate: 1, DepartureRate: 0.5, CrashRate: 0.5, SleepRate: 1, SleepSteps: 20,
	}); err != nil {
		b.Fatal(err)
	}
	if err := net.Run(50); err != nil {
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
	s, err := net.TrafficStats()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.DeliveryRatio, "deliveryRatio")
}

// BenchmarkFlatDist is the stretch baseline as a layer row: one op is 700
// flatDist queries between fixed seeded pairs on the mean-degree-10 world
// the mixed recipe uses, at 2 000 and 20 000 nodes. It prices what an
// edge change costs the traffic plane when every flow's baseline goes
// stale at once; the scratch has grown before the timer starts, so it
// allocates nothing.
func BenchmarkFlatDist(b *testing.B) {
	for _, nodes := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("n=%d", nodes), func(b *testing.B) {
			net, err := NewRandomNetwork(nodes, WithSeed(1),
				WithRange(math.Sqrt(10/(math.Pi*float64(nodes)))))
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(7)
			pairs := make([][2]int, 700)
			for i := range pairs {
				pairs[i] = [2]int{src.Intn(nodes), src.Intn(nodes)}
				net.flatDist(pairs[i][0], pairs[i][1])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					net.flatDist(p[0], p[1])
				}
			}
		})
	}
}

// BenchmarkTrafficStep1000 is the traffic-phase headline: one Δ(τ) step of
// a stabilized 1000-node network carrying 100 concurrent flows. Steady-
// state allocations must stay O(1) amortized — watch allocs/op.
func BenchmarkTrafficStep1000(b *testing.B) {
	net := benchStableNet(b, 1000)
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 32,
		Flows:    benchFlows(net, 100),
	}); err != nil {
		b.Fatal(err)
	}
	// Warm up: fill pipelines and grow scratch buffers to steady state.
	if err := net.Run(50); err != nil {
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
	s, err := net.TrafficStats()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.DeliveryRatio, "deliveryRatio")
}

// dataplaneWorld builds the static world of the bench/ "dataplane"
// workload at its size and flow mix: a stabilized 20 000-node network at
// mean degree 10 carrying 500 unicast CBR/Poisson flows at rate 0.1
// between seeded random pairs plus 4 hotspots of 50 sources each, Budget
// 4, TTL 256, with no energy model attached.
func dataplaneWorld(b *testing.B) *Network {
	b.Helper()
	const nodes = 20000
	net, err := NewRandomNetwork(nodes, WithSeed(1),
		WithRange(math.Sqrt(10/(math.Pi*nodes))), WithCacheTTL(8))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Stabilize(5000); err != nil {
		b.Fatal(err)
	}
	ids := net.IDs()
	src := rng.New(7)
	flows := make([]Flow, 0, 504)
	for len(flows) < 500 {
		s, d := ids[src.Intn(nodes)], ids[src.Intn(nodes)]
		if s == d {
			continue
		}
		if len(flows)%2 == 0 {
			flows = append(flows, CBRFlow(s, d, 0.1))
		} else {
			flows = append(flows, PoissonFlow(s, d, 0.1))
		}
	}
	for i := 0; i < 4; i++ {
		flows = append(flows, HotspotFlow(ids[src.Intn(nodes)], 50, 0.1))
	}
	if err := net.AttachTraffic(TrafficConfig{Flows: flows, Budget: 4, TTL: 256}); err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkTrafficStep is the forwarding layer's own row at the size the
// bench/ "dataplane" workload runs: one Δ(τ) step of dataplaneWorld. The
// protocol is quiescent and the warm-up fills every pipeline and
// flat-distance row, so an op is the traffic phase alone; compare
// BenchmarkEnergyStep/n=20000 for the battery pass on top.
func BenchmarkTrafficStep(b *testing.B) {
	b.Run("n=20000", func(b *testing.B) {
		net := dataplaneWorld(b)
		if err := net.Run(200); err != nil {
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
		s, err := net.TrafficStats()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.DeliveryRatio, "deliveryRatio")
	})
}

// BenchmarkNextHop is the routing layer's row under the data plane: one
// op is every NextHop call that carries one packet of each of
// dataplaneWorld's 700 expanded flows from its source to its destination
// (or to the hop that finds no route), interleaved as the forwarder
// interleaves them — hop k of every packet before hop k+1 of any. The
// world is static, so the table is built once and the first pass fills
// every tree and row the calls touch; an op then allocates nothing.
func BenchmarkNextHop(b *testing.B) {
	b.Run("n=20000", func(b *testing.B) {
		net := dataplaneWorld(b)
		table, err := net.hierTable()
		if err != nil {
			b.Fatal(err)
		}
		type call struct{ cur, dst int }
		var calls []call
		ts, err := net.TrafficStats()
		if err != nil {
			b.Fatal(err)
		}
		at := make([]call, 0, len(ts.PerFlow)) // each packet's next call
		for _, f := range ts.PerFlow {
			src, _ := net.IndexOf(f.SrcID)
			dst, _ := net.IndexOf(f.DstID)
			at = append(at, call{src, dst})
		}
		for len(at) > 0 {
			kept := at[:0]
			for _, c := range at {
				calls = append(calls, c)
				next, err := table.NextHop(c.cur, c.dst)
				if err == nil && next != c.dst {
					kept = append(kept, call{next, c.dst})
				}
			}
			at = kept
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range calls {
				if _, err := table.NextHop(c.cur, c.dst); err != nil && !errors.Is(err, routing.ErrUnreachable) {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(calls)), "calls/op")
	})
}

// benchFlows builds a deterministic 100-flow mix: 90 unicast pairs plus a
// 10-source hotspot.
func benchFlows(net *Network, flows int) []Flow {
	ids := net.IDs()
	out := make([]Flow, 0, flows)
	for i := 0; i < flows-10; i++ {
		src := ids[(i*17)%len(ids)]
		dst := ids[(i*41+len(ids)/3)%len(ids)]
		if i%2 == 0 {
			out = append(out, CBRFlow(src, dst, 0.2))
		} else {
			out = append(out, PoissonFlow(src, dst, 0.2))
		}
	}
	out = append(out, HotspotFlow(ids[1], 10, 0.2))
	return out
}
