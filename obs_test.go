package selfstab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"selfstab/internal/obs"
)

// TestProbeDeterminism is the tracing-on-vs-off oracle: through a mixed
// churn + traffic + energy trace (compactNet: every phase of the step path
// fires, so a probe that perturbed anything would be caught), a network
// with a Collector attached produces bit-identical clusters, stats and
// ledgers to a probe-free twin — at 1 and 4 workers.
func TestProbeDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(probe bool) (compactObservables, *obs.Collector) {
				net := compactNet(t, 777)
				net.SetParallelism(workers)
				var c *obs.Collector
				if probe {
					c = NewCollector(256)
					net.AttachProbe(c)
				}
				if err := net.Run(140); err != nil {
					t.Fatal(err)
				}
				return observe(t, net), c
			}
			probed, c := run(true)
			bare, _ := run(false)
			compareObservables(t, "probe on vs off", probed, bare)

			// The probed twin must actually have observed the run:
			// every phase of the mixed workload appears in the stream.
			m := c.Metrics()
			if m.Steps != 140 {
				t.Fatalf("collector recorded %d steps, want 140", m.Steps)
			}
			for _, p := range []obs.Phase{obs.PhaseChurn, obs.PhaseFrame, obs.PhaseIngest, obs.PhaseTraffic, obs.PhaseEnergy} {
				if m.Phases[p].Count == 0 {
					t.Errorf("phase %v unobserved through the mixed trace", p)
				}
			}
			if m.Counters[obs.CtrTrafficForwarded] == 0 {
				t.Errorf("no forwarded packets counted under the mixed workload")
			}
		})
	}
}

// TestProbeSurvivesAttachOrder: subsystems attached after the probe
// inherit it, and a detach silences every emitter at once.
func TestProbeSurvivesAttachOrder(t *testing.T) {
	net := churnNet(t, 220, 31)
	c := NewCollector(64)
	net.AttachProbe(c) // probe first, subsystems after
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 8,
		Flows:    mixedWorkload(net, 8),
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachEnergy(EnergyConfig{Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(30); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Phases[obs.PhaseTraffic].Count == 0 || m.Phases[obs.PhaseEnergy].Count == 0 {
		t.Fatalf("late-attached subsystems did not inherit the probe: %+v", m.Phases)
	}
	if !c.Recent(1)[0].CounterSeen[obs.CtrQueueOccupancy] {
		t.Errorf("traffic engine did not report queue occupancy")
	}

	net.DetachProbe()
	if net.Probe() != nil {
		t.Fatalf("Probe() non-nil after DetachProbe")
	}
	before := c.Metrics().Steps
	if err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Steps; got != before {
		t.Fatalf("detached collector still saw %d new steps", got-before)
	}
}

// TestNetworkWriteTrace: the network-level trace export renders the
// attached collector's records as valid Chrome trace JSON covering the
// post-guard phases too.
func TestNetworkWriteTrace(t *testing.T) {
	net := compactNet(t, 99)
	c := NewCollector(128)
	net.AttachProbe(c)
	if err := net.Run(40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.WriteTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	want := map[string]bool{"step": false, "traffic": false, "energy": false, "churn": false}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			if _, ok := want[ev.Name]; ok {
				want[ev.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace has no %q span", name)
		}
	}

	// Without a collector attached, the export is a documented no-op.
	bare := churnNet(t, 5, 0)
	var empty bytes.Buffer
	if err := bare.WriteTrace(&empty, 0); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("probe-less WriteTrace wrote %d bytes", empty.Len())
	}
}
