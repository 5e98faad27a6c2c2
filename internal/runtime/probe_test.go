package runtime

import (
	"errors"
	"fmt"
	"testing"

	"selfstab/internal/cluster"
	"selfstab/internal/obs"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// TestStepProbeDisabledZeroAlloc is the zero-overhead pin at the
// allocation level: with no probe attached — including after an
// attach/detach cycle — a steady-state step performs zero allocations,
// exactly as before the instrumentation layer existed, at one and four
// workers. The time half of the pin is the benchgate:
// BenchmarkStep1000/BenchmarkQuiescentStep medians are compared against
// the committed baselines by scripts/bench.sh.
func TestStepProbeDisabledZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g, ids := randomNetwork(1, 1000, 0.1)
			e, err := New(g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			e.SetParallelism(workers)
			if _, err := e.RunUntilStable(5000, 5); err != nil {
				t.Fatal(err)
			}

			measure := func(label string) {
				t.Helper()
				allocs := testing.AllocsPerRun(100, func() {
					if err := e.Step(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s: quiescent step allocates %.2f/op, want 0", label, allocs)
				}
			}
			measure("never attached")

			// An attach/detach cycle must restore the exact nil-probe fast path.
			c := obs.NewCollector(16)
			e.SetProbe(c)
			if err := runSteps(e, 3); err != nil {
				t.Fatal(err)
			}
			e.SetProbe(nil)
			measure("after detach")

			if got := c.Metrics().Steps; got != 3 {
				t.Fatalf("collector saw %d steps while attached, want 3", got)
			}
		})
	}
}

// spanProbe counts how many spans of each phase are open and keeps the
// last EndStep verdict.
type spanProbe struct {
	open    [obs.NumPhases]int
	changed bool
}

func (p *spanProbe) BeginStep(int)               {}
func (p *spanProbe) EndStep(_ int, changed bool) { p.changed = changed }
func (p *spanProbe) PhaseBegin(ph obs.Phase)     { p.open[ph]++ }
func (p *spanProbe) PhaseEnd(ph obs.Phase)       { p.open[ph]-- }
func (p *spanProbe) Counter(obs.Counter, int64)  {}

// failingMedium is the lossless medium until told to fail.
type failingMedium struct {
	radio.Perfect
	err error
}

func (m *failingMedium) Deliver(g *topology.Graph, active []bool, in *radio.Inbox) error {
	if m.err != nil {
		return m.err
	}
	return m.Perfect.Deliver(g, active, in)
}

// TestStepErrorKeepsProbeStreamSound: a step that fails — in the pre-step
// hook, or in the medium — still closes every phase span it opened and
// reports its own verdict (nothing changed), not the previous step's. A
// sink that keeps a span stack would otherwise mis-parent every later span.
func TestStepErrorKeepsProbeStreamSound(t *testing.T) {
	boom := errors.New("boom")
	rows := []struct {
		name string
		arm  func(e *Engine, m *failingMedium)
	}{
		{"pre-step hook", func(e *Engine, _ *failingMedium) {
			e.SetPreStep(func(int) error { return boom })
		}},
		{"deliver", func(_ *Engine, m *failingMedium) { m.err = boom }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g, ids := randomNetwork(5, 60, 0.25)
			m := &failingMedium{}
			e := mustEngine(t, g, ids, basicProtocol(), m, 5)
			p := &spanProbe{}
			e.SetProbe(p)
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if !p.changed {
				t.Fatal("cold-start step changed nothing: a stale verdict would go unnoticed")
			}

			row.arm(e, m)
			if err := e.Step(); !errors.Is(err, boom) {
				t.Fatalf("Step() = %v, want the injected error", err)
			}
			if p.changed {
				t.Error("failed step reported changed=true")
			}
			for ph, n := range p.open {
				if n != 0 {
					t.Errorf("phase %v: %d spans left open", obs.Phase(ph), n)
				}
			}
			if got := e.StepCount(); got != 1 {
				t.Errorf("StepCount() = %d after a failed step, want 1", got)
			}
		})
	}
}

// TestProbePhaseEmission drives both step paths and checks the probe
// stream they emit: records pair Begin/End, the expected phases appear,
// and the cold-start step reports visiting the whole population.
func TestProbePhaseEmission(t *testing.T) {
	const n = 300
	g, ids := randomNetwork(7, n, 0.12)
	e, err := New(g, ids, Protocol{Order: cluster.OrderBasic}, radio.Perfect{}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector(64)
	e.SetProbe(c)

	// Cold start: the whole population pends, so the first step visits
	// every node.
	if err := runSteps(e, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Recent(2)[0].Counters[obs.CtrExec]; got != n {
		t.Errorf("cold-start step visited %d nodes, want the population %d", got, n)
	}
	m := c.Metrics()
	if m.Phases[obs.PhaseFrame].Count == 0 || m.Phases[obs.PhaseIngest].Count == 0 {
		t.Errorf("frame/ingest phases unobserved: %+v", m.Phases)
	}

	if _, err := e.RunUntilStable(5000, 5); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Steps
	if err := runSteps(e, 4); err != nil {
		t.Fatal(err)
	}
	recs := c.Recent(4)
	if len(recs) != 4 || c.Metrics().Steps != before+4 {
		t.Fatalf("want 4 fresh records, got %d (steps %d→%d)", len(recs), before, c.Metrics().Steps)
	}
	for _, r := range recs {
		if r.Changed {
			t.Errorf("step %d: quiescent step reported a change", r.Step)
		}
		if !r.CounterSeen[obs.CtrFrontier] || r.Counters[obs.CtrFrontier] != 0 {
			t.Errorf("step %d: frontier gauge %v/%d, want seen/0", r.Step, r.CounterSeen[obs.CtrFrontier], r.Counters[obs.CtrFrontier])
		}
	}

	// The dense path brackets churn, frame (incl. delivery) and ingest.
	if err := e.SetSparse(false); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	rec := c.Recent(1)[0]
	for _, p := range []obs.Phase{obs.PhaseChurn, obs.PhaseFrame, obs.PhaseIngest} {
		if !rec.Phases[p].Ok {
			t.Errorf("dense step: phase %v unobserved", p)
		}
	}
	if !rec.CounterSeen[obs.CtrExec] {
		t.Errorf("dense step: exec gauge unobserved")
	}
}
