package selfstab

import "testing"

// trafficNet builds a stabilized random network ready to carry traffic.
func trafficNet(t testing.TB, nodes int, seed int64, opts ...Option) *Network {
	t.Helper()
	opts = append([]Option{WithSeed(seed), WithRange(0.14)}, opts...)
	net, err := NewRandomNetwork(nodes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(1000); err != nil {
		t.Fatal(err)
	}
	return net
}

// mixedWorkload is a representative flow mix: CBR and Poisson unicast
// pairs plus a many-to-one hotspot.
func mixedWorkload(net *Network, flows int) []Flow {
	ids := net.IDs()
	out := make([]Flow, 0, flows+1)
	for i := 0; i < flows; i++ {
		src := ids[(i*7)%len(ids)]
		dst := ids[(i*13+len(ids)/2)%len(ids)]
		if i%2 == 0 {
			out = append(out, CBRFlow(src, dst, 0.5))
		} else {
			out = append(out, PoissonFlow(src, dst, 0.5))
		}
	}
	out = append(out, HotspotFlow(ids[0], 8, 0.25))
	return out
}

// checkTrafficLedger asserts that every offered packet has exactly one
// fate.
func checkTrafficLedger(t *testing.T, s TrafficStats) {
	t.Helper()
	if got := s.Delivered + s.DropsQueue + s.DropsNoRoute + s.DropsTTL + s.DropsDeadEndpoint + s.DropsAdmission + s.DropsRateLimit + s.InFlight; got != s.Offered {
		t.Fatalf("ledger broken: %+v", s)
	}
}

// TestTrafficDeliveryOnStableNetwork: on a converged static network,
// lightly loaded flows between connected nodes deliver nearly everything
// at stretch >= 1.
func TestTrafficDeliveryOnStableNetwork(t *testing.T) {
	net := trafficNet(t, 200, 7)
	// Pick endpoints inside the largest cluster's component: route must
	// exist.
	var flows []Flow
	clusters := net.Clusters()
	for i := 0; i < len(clusters) && len(flows) < 6; i++ {
		ms := clusters[i].Members
		if len(ms) >= 2 {
			flows = append(flows, CBRFlow(ms[0], ms[len(ms)-1], 0.5))
		}
	}
	if len(flows) == 0 {
		t.Skip("no multi-member clusters")
	}
	if err := net.AttachTraffic(TrafficConfig{Flows: flows}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(200); err != nil {
		t.Fatal(err)
	}
	s, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s)
	if s.DeliveryRatio < 0.99 {
		t.Errorf("delivery ratio %v on an idle stable network, want ~1: %+v", s.DeliveryRatio, s)
	}
	if s.Delivered > 0 && s.MeanStretch < 1 {
		t.Errorf("mean stretch %v < 1: hierarchical routes can't beat shortest paths", s.MeanStretch)
	}
	if s.LatencyP50 < 1 {
		t.Errorf("latency p50 %d, want >= 1 for multi-hop flows", s.LatencyP50)
	}
}

// TestTrafficQueueOverflowAccounting floods one sink through tiny queues
// and checks the drop ledger stays exact under congestion collapse.
func TestTrafficQueueOverflowAccounting(t *testing.T) {
	net := trafficNet(t, 150, 21)
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 2,
		Flows:    []Flow{HotspotFlow(ids[0], 40, 1.5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(150); err != nil {
		t.Fatal(err)
	}
	s, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s)
	if s.DropsQueue == 0 {
		t.Errorf("40 sources x 1.5 pkt/step into 2-slot queues dropped nothing: %+v", s)
	}
	// Per-flow accounting must add up to the engine totals.
	var offered, delivered, dropped int64
	for _, f := range s.PerFlow {
		offered += f.Offered
		delivered += f.Delivered
		dropped += f.Dropped
	}
	if offered != s.Offered || delivered != s.Delivered {
		t.Errorf("per-flow sums (%d, %d) != totals (%d, %d)", offered, delivered, s.Offered, s.Delivered)
	}
	if wantDropped := s.DropsQueue + s.DropsNoRoute + s.DropsTTL; dropped != wantDropped {
		t.Errorf("per-flow dropped %d != engine drops %d", dropped, wantDropped)
	}
	// DropHead under the same load also keeps the ledger exact.
	net2 := trafficNet(t, 150, 21)
	ids2 := net2.IDs()
	if err := net2.AttachTraffic(TrafficConfig{
		QueueCap:   2,
		Discipline: DropHead,
		Flows:      []Flow{HotspotFlow(ids2[0], 40, 1.5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net2.Run(150); err != nil {
		t.Fatal(err)
	}
	s2, err := net2.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s2)
	if s2.DropsQueue == 0 {
		t.Errorf("DropHead dropped nothing under overload: %+v", s2)
	}
}

// TestTrafficAcrossPartition: flows between disconnected components must
// show up as no-route drops, not silent loss.
func TestTrafficAcrossPartition(t *testing.T) {
	// Two clumps far outside radio range of each other.
	pts := []Point{
		{X: 0.1, Y: 0.1}, {X: 0.12, Y: 0.1}, {X: 0.1, Y: 0.12},
		{X: 0.9, Y: 0.9}, {X: 0.88, Y: 0.9}, {X: 0.9, Y: 0.88},
	}
	net, err := NewNetwork(pts, WithSeed(3), WithRange(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(500); err != nil {
		t.Fatal(err)
	}
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		Flows: []Flow{CBRFlow(ids[0], ids[3], 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(20); err != nil {
		t.Fatal(err)
	}
	s, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s)
	if s.Delivered != 0 {
		t.Errorf("delivered %d packets across a partition", s.Delivered)
	}
	if s.DropsNoRoute == 0 {
		t.Errorf("cross-partition flow produced no no-route drops: %+v", s)
	}
	// No-route drops are not transmissions: nothing was ever forwarded,
	// so the load ledger must stay empty.
	tx, _ := net.traffic.Counters()
	for i, l := range tx {
		if l != 0 {
			t.Errorf("node %d shows load %d on a network that only dropped", i, l)
		}
	}
	if s.MaxLoad != 0 {
		t.Errorf("max load %d, want 0 when every packet dropped at the source", s.MaxLoad)
	}
}

// TestTrafficSurvivesFaultsAndHeals: the data plane keeps accounting
// through total corruption and recovers its delivery ratio after the
// protocol re-stabilizes.
func TestTrafficSurvivesFaultsAndHeals(t *testing.T) {
	net := trafficNet(t, 200, 5, WithDAG(0))
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		Flows: []Flow{CBRFlow(ids[1], ids[2], 1), PoissonFlow(ids[3], ids[4], 0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(50); err != nil {
		t.Fatal(err)
	}
	net.InjectFaults(1)
	if _, err := net.Stabilize(2000); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(100); err != nil {
		t.Fatal(err)
	}
	s, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s)
	if s.Delivered == 0 {
		t.Errorf("nothing delivered across fault injection and recovery: %+v", s)
	}
}

// TestTrafficAttachValidation covers the error surface.
func TestTrafficAttachValidation(t *testing.T) {
	net := trafficNet(t, 30, 1)
	if _, err := net.TrafficStats(); err == nil {
		t.Error("TrafficStats before AttachTraffic succeeded")
	}
	cases := []TrafficConfig{
		{},                                    // no flows
		{Flows: []Flow{CBRFlow(99999, 0, 1)}}, // unknown src
		{Flows: []Flow{CBRFlow(0, 99999, 1)}}, // unknown dst
		{Flows: []Flow{HotspotFlow(99999, 3, 1)}}, // unknown sink
		{Flows: []Flow{HotspotFlow(0, 30, 1)}},    // too many sources
		{Flows: []Flow{CBRFlow(0, 1, -1)}},        // bad rate
		{Discipline: QueueDiscipline(9), Flows: []Flow{CBRFlow(0, 1, 1)}},
	}
	for i, cfg := range cases {
		if err := net.AttachTraffic(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestDetachTraffic: after detaching, steps no longer move packets but the
// final ledger stays readable.
func TestDetachTraffic(t *testing.T) {
	net := trafficNet(t, 50, 13)
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{Flows: []Flow{CBRFlow(ids[0], ids[1], 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(20); err != nil {
		t.Fatal(err)
	}
	before, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	// Steps counts data-plane steps only, not the stabilization that ran
	// before AttachTraffic.
	if before.Steps != 20 {
		t.Errorf("traffic Steps = %d after 20 attached steps, want 20", before.Steps)
	}
	net.DetachTraffic()
	if err := net.Run(20); err != nil {
		t.Fatal(err)
	}
	after, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Offered != after.Offered {
		t.Errorf("detached data plane kept injecting: %d -> %d", before.Offered, after.Offered)
	}
}

// TestHotspotConcentratesLoadOnHeads: the convergecast workload must show
// the hierarchy's load concentration — cluster-heads carry a share of
// forwarding well above their population share.
func TestHotspotConcentratesLoadOnHeads(t *testing.T) {
	net := trafficNet(t, 300, 17)
	ids := net.IDs()
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 32,
		Flows:    []Flow{HotspotFlow(ids[0], 60, 0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(200); err != nil {
		t.Fatal(err)
	}
	s, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	checkTrafficLedger(t, s)
	if s.Delivered == 0 {
		t.Fatalf("hotspot delivered nothing: %+v", s)
	}
	if s.HeadLoadShare <= s.HeadFraction {
		t.Errorf("head load share %.3f <= head population share %.3f — hierarchy should concentrate load on heads",
			s.HeadLoadShare, s.HeadFraction)
	}
	if tx, _ := net.traffic.Counters(); len(tx) != net.N() {
		t.Errorf("load vector has %d entries for %d nodes", len(tx), net.N())
	}
}
