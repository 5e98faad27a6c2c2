package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// drive pushes one synthetic step through the collector.
func drive(c *Collector, step int, changed bool) {
	c.BeginStep(step - 1)
	c.Counter(CtrFrontier, int64(step))
	c.PhaseBegin(PhaseFrame)
	c.PhaseEnd(PhaseFrame)
	c.PhaseBegin(PhaseIngest)
	c.PhaseEnd(PhaseIngest)
	c.Counter(CtrTrafficForwarded, 3)
	c.EndStep(step, changed)
}

func TestCollectorRecords(t *testing.T) {
	c := NewCollector(8)
	drive(c, 1, true)
	drive(c, 2, false)

	recs := c.Recent(0)
	if len(recs) != 2 {
		t.Fatalf("want 2 records, got %d", len(recs))
	}
	r := recs[0]
	if r.Step != 1 || !r.Changed {
		t.Errorf("record 0: step=%d changed=%v, want 1/true", r.Step, r.Changed)
	}
	if !r.Phases[PhaseFrame].Ok || !r.Phases[PhaseIngest].Ok {
		t.Errorf("frame/ingest phases not recorded: %+v", r.Phases)
	}
	if r.Phases[PhaseChurn].Ok {
		t.Errorf("churn phase recorded but never emitted")
	}
	if r.Phases[PhaseFrame].DurNs < 0 {
		t.Errorf("negative frame duration %d", r.Phases[PhaseFrame].DurNs)
	}
	if !r.CounterSeen[CtrFrontier] || r.Counters[CtrFrontier] != 1 {
		t.Errorf("frontier gauge: seen=%v v=%d", r.CounterSeen[CtrFrontier], r.Counters[CtrFrontier])
	}
	if recs[1].Counters[CtrFrontier] != 2 {
		t.Errorf("gauge must not accumulate across steps: got %d", recs[1].Counters[CtrFrontier])
	}
	if recs[1].Seq != 1 {
		t.Errorf("seq: got %d, want 1", recs[1].Seq)
	}

	m := c.Metrics()
	if m.Steps != 2 {
		t.Errorf("Steps=%d, want 2", m.Steps)
	}
	if m.Counters[CtrTrafficForwarded] != 6 {
		t.Errorf("cumulative forwarded total: got %d, want 6", m.Counters[CtrTrafficForwarded])
	}
	if m.Counters[CtrFrontier] != 2 {
		t.Errorf("gauge total holds last value: got %d, want 2", m.Counters[CtrFrontier])
	}
	if m.Phases[PhaseFrame].Count != 2 || m.Phases[PhaseChurn].Count != 0 {
		t.Errorf("phase histogram counts: frame=%d churn=%d", m.Phases[PhaseFrame].Count, m.Phases[PhaseChurn].Count)
	}
	if m.Step.Count != 2 {
		t.Errorf("step histogram count: got %d, want 2", m.Step.Count)
	}
	var sum int64
	for _, n := range m.Step.Counts {
		sum += n
	}
	if sum != m.Step.Count {
		t.Errorf("bucket counts sum %d != observation count %d", sum, m.Step.Count)
	}
}

func TestCollectorRingWraparound(t *testing.T) {
	c := NewCollector(4)
	for s := 1; s <= 10; s++ {
		drive(c, s, true)
	}
	recs := c.Recent(0)
	if len(recs) != 4 {
		t.Fatalf("want ring-size 4 records, got %d", len(recs))
	}
	for i, r := range recs {
		if want := 7 + i; r.Step != want {
			t.Errorf("record %d: step=%d, want %d", i, r.Step, want)
		}
	}
	if got := c.Recent(2); len(got) != 2 || got[1].Step != 10 {
		t.Errorf("Recent(2): %+v", got)
	}
	if c.Metrics().Steps != 10 {
		t.Errorf("Steps=%d, want 10", c.Metrics().Steps)
	}
}

// TestCollectorConcurrentReaders hammers Metrics/Recent from readers
// while the writer laps the ring; run under -race this pins the
// lock-free publication protocol.
func TestCollectorConcurrentReaders(t *testing.T) {
	c := NewCollector(8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, rec := range c.Recent(0) {
					if rec.Step != int(rec.Seq)+1 {
						t.Errorf("torn record: step=%d seq=%d", rec.Step, rec.Seq)
						return
					}
				}
				c.Metrics()
			}
		}()
	}
	for s := 1; s <= 2000; s++ {
		drive(c, s, true)
	}
	close(done)
	wg.Wait()
}

func TestWriteTrace(t *testing.T) {
	c := NewCollector(8)
	drive(c, 1, true)
	c.BeginStep(1)
	c.Counter(CtrDenseFallback, 1)
	c.EndStep(2, true)

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf, 0); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	counts := map[string]int{}
	for _, ev := range tf.TraceEvents {
		counts[ev.Ph+":"+ev.Name]++
	}
	if counts["X:step"] != 2 {
		t.Errorf("want 2 step spans, got %d", counts["X:step"])
	}
	if counts["X:frame"] != 1 || counts["X:ingest"] != 1 {
		t.Errorf("phase spans: %v", counts)
	}
	if counts["C:dense_fallbacks"] != 1 || counts["C:frontier_len"] != 1 {
		t.Errorf("counter events: %v", counts)
	}
	if counts["M:process_name"] != 1 || counts["M:thread_name"] != 1 {
		t.Errorf("metadata events: %v", counts)
	}
}

func TestPhaseCounterStrings(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == "" || p.String() == "unknown" {
			t.Errorf("phase %d has no name", p)
		}
	}
	if Phase(250).String() != "unknown" {
		t.Errorf("out-of-range phase name: %q", Phase(250).String())
	}
	seen := map[string]bool{}
	for ctr := Counter(0); ctr < NumCounters; ctr++ {
		n := ctr.String()
		if n == "" || n == "unknown" {
			t.Errorf("counter %d has no name", ctr)
		}
		if seen[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	if Counter(250).String() != "unknown" || Counter(250).Cumulative() {
		t.Errorf("out-of-range counter metadata")
	}
	if !CtrDenseFallback.Cumulative() || CtrFrontier.Cumulative() {
		t.Errorf("cumulative flags wrong")
	}
}
