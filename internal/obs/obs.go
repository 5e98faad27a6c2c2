// Package obs is the engine's instrumentation core: a Probe interface
// the step path reports into (phase boundaries, counter gauges) and a
// Collector sink that turns those reports into a lock-free ring of
// per-step records, Prometheus-ready phase histograms, and Chrome
// trace-event exports.
//
// The package is built around two contracts:
//
// Zero overhead when disabled. Every emission site in the engine is
// guarded by a nil-probe check, so a detached probe costs a handful of
// predicted branches per step — no allocations, no interface calls, no
// clock reads. The pin is enforced by the steady-state allocation tests
// and the bench.sh regression gate.
//
// Determinism (the obspure rule). Probe callbacks are pure observers:
// wall-clock reads live only inside the sink (this package), never in
// engine state, and a callback must not mutate the engine or feed any
// value — timing included — back into the simulation. All Probe methods
// return nothing, the engine core never calls a value-returning function
// of this package, and the obspure analyzer (internal/analyze) enforces
// both directions statically. Tracing on versus off is therefore
// bit-identical, pinned by the probe axis of the root package's
// determinism matrix.
package obs

// Phase identifies one phase of a Δ(τ) step. The engine brackets each
// phase with PhaseBegin/PhaseEnd; phases absent from a given step path
// (no churn hook, no data plane) are simply never emitted.
type Phase uint8

const (
	// PhaseChurn is the pre-step window: disruption-episode closing plus
	// the churn schedule's add/remove/crash/sleep/wake ops.
	PhaseChurn Phase = iota
	// PhaseFrame is outgoing-frame assembly (and, on a full-scan engine,
	// radio delivery).
	PhaseFrame
	// PhaseHalo is retired with the tile plane, never emitted; bench/ names it.
	PhaseHalo
	// PhaseIngest is neighbor-cache ingest plus the guarded assignments.
	PhaseIngest
	// PhaseTraffic is the packet data plane's post-guard phase.
	PhaseTraffic
	// PhaseEnergy is the battery model's post-traffic phase.
	PhaseEnergy
	// PhaseCompact is dead-slot compaction (runs between steps; its span
	// is attributed to the following step's record).
	PhaseCompact
	// NumPhases bounds dense per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"churn", "frame", "halo", "ingest", "traffic", "energy", "compact",
}

// String returns the phase's metric label.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Counter identifies one engine gauge or cumulative counter. Gauge
// counters report the current value each emission; cumulative counters
// report an additive contribution (the sink keeps the running total).
type Counter uint8

const (
	// CtrFrontier is the frontier worklist length at step entry (gauge).
	CtrFrontier Counter = iota
	// CtrExec is how many nodes the step actually examined (gauge).
	CtrExec
	// CtrDenseFallback is retired with the saturation cut-over, never
	// emitted; bench/ names it.
	CtrDenseFallback
	// CtrHaloCross is retired with the tile plane, never emitted; bench/ names it.
	CtrHaloCross
	// CtrCompactions counts dead-slot compactions (cumulative).
	CtrCompactions
	// CtrQueueOccupancy is the data plane's in-flight packet count at the
	// end of the traffic phase (gauge).
	CtrQueueOccupancy
	// CtrTrafficForwarded counts data-plane transmissions (cumulative;
	// the engine emits the per-step transmission count).
	CtrTrafficForwarded
	// CtrDepletions is the battery model's cumulative depletion count
	// (gauge: the energy engine reports its own running total).
	CtrDepletions
	// CtrAttacksInjected counts adversarial operations launched through
	// the attack plane — floods, byzantine density inflations, sybil
	// bursts (cumulative; one per attack call).
	CtrAttacksInjected
	// CtrByzantineEvictions counts nodes expelled by the density-
	// plausibility defense (cumulative; one per evicted node).
	CtrByzantineEvictions
	// CtrAdmissionRejects counts packets the traffic defenses refused —
	// per-head token-bucket admission drops plus per-source rate-limit
	// drops (cumulative; the data plane emits the per-step count).
	CtrAdmissionRejects
	// NumCounters bounds dense per-counter arrays.
	NumCounters
)

// counterInfo is the per-counter metadata the sink and the exporters
// share: the metric label and whether emissions accumulate.
var counterInfo = [NumCounters]struct {
	name       string
	cumulative bool
}{
	CtrFrontier:         {"frontier_len", false},
	CtrExec:             {"exec_len", false},
	CtrDenseFallback:    {"dense_fallbacks", true},
	CtrHaloCross:        {"halo_crossings", true},
	CtrCompactions:      {"compactions", true},
	CtrQueueOccupancy:   {"queue_occupancy", false},
	CtrTrafficForwarded: {"traffic_forwarded", true},
	CtrDepletions:       {"energy_depletions", false},

	CtrAttacksInjected:    {"attacks_injected", true},
	CtrByzantineEvictions: {"byzantine_evictions", true},
	CtrAdmissionRejects:   {"admission_rejects", true},
}

// String returns the counter's metric label.
func (c Counter) String() string {
	if int(c) < len(counterInfo) {
		return counterInfo[c].name
	}
	return "unknown"
}

// Cumulative reports whether emissions for c are additive contributions
// (true) or current-value gauges (false).
func (c Counter) Cumulative() bool {
	return int(c) < len(counterInfo) && counterInfo[c].cumulative
}

// Probe receives the engine's instrumentation stream. The engine calls
// it only when attached (nil-probe sites are skipped entirely), from the
// stepping goroutine.
//
// Implementations must be pure observers (the obspure rule): no method
// returns a value, and no method may mutate engine state, call back into
// the engine packages, or write global state. Wall-clock reads belong
// here and only here.
type Probe interface {
	// BeginStep opens the record for the step about to execute; step is
	// the engine's completed-step count at entry.
	BeginStep(step int)
	// EndStep closes the record. step is the count after the step;
	// changed reports whether any shared variable moved.
	EndStep(step int, changed bool)
	// PhaseBegin and PhaseEnd bracket one phase of the current step.
	PhaseBegin(p Phase)
	PhaseEnd(p Phase)
	// Counter reports v for c: the current value for gauge counters, an
	// additive contribution for cumulative ones.
	Counter(c Counter, v int64)
}
