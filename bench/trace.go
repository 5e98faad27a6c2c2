package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"selfstab/internal/obs"
)

// span is one timed interval of a run. Times are nanoseconds since the
// tracer was built; parent is an index into tracer.spans (-1 for the root).
type span struct {
	name       string
	parent     int
	start, end int64
}

// tracer keeps every span of one run in memory and writes them out when
// the run ends. It is used from one goroutine: the harness and the engine's
// probe callbacks share the stepping goroutine, and the serve workload adds
// its request spans after the window from the samples it kept.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = t.now()
	return time.Duration(t.spans[id].end - t.spans[id].start)
}

// add records a span measured elsewhere (a request timed by the load
// generator) under the given parent.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{name: name, parent: parent,
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))})
}

// innermost returns the name of the innermost open span.
func (t *tracer) innermost() string {
	if len(t.open) == 0 {
		return ""
	}
	return t.spans[t.open[len(t.open)-1]].name
}

// write renders the spans as Chrome trace-event JSON. Every event carries
// its span id, its parent's id, the run id, and its self time: its
// duration minus the part its children cover.
func (t *tracer) write(path, runID string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 0,
			Args: map[string]any{"id": i, "parent": s.parent, "run": runID,
				"self_us": float64(s.end-s.start-childNs[i]) / 1e3},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}

// sink is the harness's obs.Probe: it turns the phase boundaries and
// counters the engine already emits into spans under the harness's own,
// and sums them for the per-layer metrics. A pure observer, as the probe
// contract requires: it reads the clock and writes only its own fields.
type sink struct {
	t       *tracer
	ownStep bool // BeginStep opened the step span, so EndStep closes it

	steps, quiet int
	phaseNs      [obs.NumPhases]int64
	counter      [obs.NumCounters]int64 // sum of every emission
}

func (s *sink) BeginStep(int) {
	// A step the harness drives itself already has its step span open;
	// steps driven by Stabilize get theirs here.
	if s.ownStep = s.t.innermost() != "step"; s.ownStep {
		s.t.begin("step")
	}
}

func (s *sink) EndStep(_ int, changed bool) {
	s.steps++
	if !changed {
		s.quiet++
	}
	if s.ownStep {
		s.t.end()
	}
}

func (s *sink) PhaseBegin(p obs.Phase) { s.t.begin(p.String()) }

func (s *sink) PhaseEnd(p obs.Phase) { s.phaseNs[p] += int64(s.t.end()) }

// Tile spans arrive from the tile workers, not the stepping goroutine;
// the halo phase span already covers them, so they are left out.
func (s *sink) TileSpanBegin(obs.Phase, int) {}
func (s *sink) TileSpanEnd(obs.Phase, int)   {}

func (s *sink) Counter(c obs.Counter, v int64) { s.counter[c] += v }

// phaseUs is the mean time per step spent in phase p, in microseconds.
func (s *sink) phaseUs(p obs.Phase) float64 {
	if s.steps == 0 {
		return 0
	}
	return float64(s.phaseNs[p]) / 1e3 / float64(s.steps)
}

// perStep is the mean per-step value of counter c.
func (s *sink) perStep(c obs.Counter) float64 {
	if s.steps == 0 {
		return 0
	}
	return float64(s.counter[c]) / float64(s.steps)
}
