package selfstab

import (
	"io"

	"selfstab/internal/obs"
)

// Observability. The network's step path — protocol engine, frontier
// machinery, traffic data plane, battery model — reports into a single
// attached obs.Probe: phase begin/end boundaries and counter gauges
// (frontier length, dense fallbacks, compactions, queue occupancy,
// depletions).
// The probe contract is the obspure rule (see internal/obs): a probe is
// a pure observer, wall-clock reads live only inside the sink, and the
// simulation is bit-identical with the probe attached or detached. A
// detached probe costs the step path nothing but nil checks.

// AttachProbe attaches an instrumentation probe to the whole step path:
// the protocol engine and every currently attached subsystem report into
// it, and subsystems attached later inherit it. nil detaches. The probe
// must obey the obspure rule (pure observer, no engine mutation — see
// internal/obs); attached or not, execution is bit-identical, so the
// probe is deliberately not journaled: snapshots and replays ignore it.
// Call only between steps, like every other mutator.
//
//selfstab:unjournaled pure observation: the probe never feeds back into the simulation, so a replay without it is bit-identical
func (n *Network) AttachProbe(p obs.Probe) {
	n.probe = p
	n.engine.SetProbe(p)
	if n.traffic != nil {
		n.traffic.SetProbe(p)
	}
	if n.energy != nil {
		n.energy.SetProbe(p)
	}
}

// DetachProbe removes the attached probe from the whole step path.
//
//selfstab:unjournaled pure observation: detaching restores the exact nil-probe fast path
func (n *Network) DetachProbe() { n.AttachProbe(nil) }

// Probe returns the attached instrumentation probe (nil when detached).
func (n *Network) Probe() obs.Probe { return n.probe }

// NewCollector builds the default probe sink: a lock-free ring of the
// most recent ringSize per-step records (0: a 512-record default) with
// Prometheus-ready phase histograms and a Chrome trace-event exporter.
// Attach it with AttachProbe; read it concurrently while stepping.
func NewCollector(ringSize int) *obs.Collector {
	return obs.NewCollector(ringSize)
}

// WriteTrace exports the most recent max step records of the attached
// Collector (0: all retained) as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. It is a no-op (and returns nil) when the
// attached probe is not a Collector or no probe is attached.
func (n *Network) WriteTrace(w io.Writer, max int) error {
	if c, ok := n.probe.(*obs.Collector); ok {
		return c.WriteTrace(w, max)
	}
	return nil
}
