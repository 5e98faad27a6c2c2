package obs

import (
	"encoding/json"
	"io"
)

// traceEvent is one Chrome trace-event object (the "Trace Event Format"
// consumed by chrome://tracing and Perfetto). Timestamps and durations
// are microseconds; fractional values keep nanosecond phases visible.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the containing JSON object format.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const tracePid = 1

// stepTid is the step loop's synthetic thread id.
const stepTid = 0

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteTrace renders recs as Chrome trace-event JSON: one "step" span
// and nested phase spans per record on the step track, and counter
// series as "C" events.
func WriteTrace(w io.Writer, recs []StepRecord) error {
	events := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: tracePid,
			Args: map[string]any{"name": "selfstab"}},
		{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: stepTid,
			Args: map[string]any{"name": "step"}},
	}
	for _, r := range recs {
		events = append(events, traceEvent{
			Name: "step", Ph: "X", Ts: usec(r.BeginNs), Dur: usec(r.DurNs),
			Pid: tracePid, Tid: stepTid,
			Args: map[string]any{"step": r.Step, "changed": r.Changed},
		})
		for p := Phase(0); p < NumPhases; p++ {
			span := r.Phases[p]
			if !span.Ok {
				continue
			}
			events = append(events, traceEvent{
				Name: p.String(), Ph: "X",
				Ts: usec(span.BeginNs), Dur: usec(span.DurNs),
				Pid: tracePid, Tid: stepTid,
			})
		}
		endTs := usec(r.BeginNs + r.DurNs)
		for ctr := Counter(0); ctr < NumCounters; ctr++ {
			if !r.CounterSeen[ctr] {
				continue
			}
			events = append(events, traceEvent{
				Name: ctr.String(), Ph: "C", Ts: endTs,
				Pid: tracePid, Tid: stepTid,
				Args: map[string]any{"value": r.Counters[ctr]},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteTrace exports the collector's most recent max records (0 or
// negative: the whole ring) as Chrome trace-event JSON.
func (c *Collector) WriteTrace(w io.Writer, max int) error {
	return WriteTrace(w, c.Recent(max))
}
