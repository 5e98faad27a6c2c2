// Package snapshot defines the versioned, deterministic serialization
// format behind Network.WriteSnapshot and selfstab.ReadSnapshot: a
// checkpoint of a live simulation that can be written to disk, shipped
// to another process, and replayed bit-identically.
//
// The format leans on the simulator's determinism contract instead of
// dumping raw memory. A world's trajectory is a pure function of three
// things: how it was constructed (the Blueprint — deployment shape plus
// every construction option, seed included), which external mutations
// were applied and when (the Ops journal — every public mutator call,
// stamped with the step count at which it ran), and how many steps have
// executed (Header.Step). Restoring therefore re-runs construction and
// replays the journal through the same op-apply chokepoint the live
// calls went through, which reconstructs every subsystem's private state
// — engine nodes and frontier, the unit-disk grid, traffic queues
// and ledgers, energy batteries, open churn episodes — exactly, because
// the replay IS the original execution. Internal randomness (churn
// schedules, lossy media, traffic workloads) needs no journaling: it is
// drawn from split streams of the master seed and reproduces by itself.
//
// The encoding is JSON with a fixed field order (Go marshals struct
// fields in declaration order), one document per snapshot, so snapshots
// are diffable, greppable and stable enough for golden-file tests. The
// header carries a magic string, the format version, the master seed and
// the step count; Decode rejects unknown magics and versions before
// touching the rest of the document, so format drift fails loudly
// instead of replaying garbage.
//
// The configuration records an op carries (Options, TrafficConfig, Flow,
// ChurnConfig, EnergyConfig, DefenseConfig) are declared here once, with
// the journal's JSON tags; the public selfstab names are aliases of them
// and the engines take them as given, so no layer re-declares a record or
// copies one field by field.
package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"selfstab/internal/geom"
)

// Magic identifies a selfstab snapshot document.
const Magic = "selfstab-snapshot"

// Version is the current format version. Bump it when the meaning of an
// existing field changes or a field replay depends on is added; Decode
// refuses documents whose version differs so an old binary never
// misreplays a new snapshot (or vice versa).
//
// Version history:
//
//	1: initial format (blueprint + 15 op kinds).
//	2: adversarial workload plane — spawn_flows, scale_density,
//	   evict_nodes and set_defense op kinds, with the scale and defense
//	   payload fields replay depends on.
const Version = 2

// Deployment kinds: how the node positions were generated. They mirror
// the public constructors one to one.
const (
	DeployExplicit = "explicit" // NewNetwork: positions listed in Points
	DeployRandom   = "random"   // NewRandomNetwork: N uniform points
	DeployPoisson  = "poisson"  // NewPoissonNetwork: Poisson(Intensity)
	DeployHotspot  = "hotspot"  // NewHotspotNetwork: N points, Hotspots sites
	DeployGrid     = "grid"     // NewGridNetwork: Rows x Cols lattice
)

// Op kinds: one per public world mutator. Every mutation a Network
// accepts flows through one op-apply chokepoint that journals these, so
// the op log is complete by construction.
const (
	OpFaults         = "inject_faults"
	OpSetPositions   = "set_positions"
	OpAddNodes       = "add_nodes"
	OpRemoveNodes    = "remove_nodes"
	OpCrashNodes     = "crash_nodes"
	OpSleepNodes     = "sleep_nodes"
	OpWakeNodes      = "wake_nodes"
	OpAttachTraffic  = "attach_traffic"
	OpDetachTraffic  = "detach_traffic"
	OpAttachChurn    = "attach_churn"
	OpDetachChurn    = "detach_churn"
	OpAttachEnergy   = "attach_energy"
	OpDetachEnergy   = "detach_energy"
	OpCompact        = "compact"
	OpSetAutoCompact = "set_auto_compact"

	// Adversarial workload plane (format version 2). Flood flows are
	// journaled as explicit src→dst pairs resolved against the live
	// hierarchy at call time — replay needs no head lookup, exactly the
	// explicit-id pattern the regional lifecycle injections use.
	OpSpawnFlows   = "spawn_flows"   // append flows, no ledger reset
	OpScaleDensity = "scale_density" // byzantine density inflation
	OpEvictNodes   = "evict_nodes"   // density-plausibility eviction
	OpSetDefense   = "set_defense"   // traffic-plane defense knobs
)

// Header opens every snapshot document.
type Header struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Seed is the master seed the world was constructed with (duplicated
	// from Blueprint.Options for at-a-glance inspection).
	Seed int64 `json:"seed"`
	// Step is the completed-step count at capture time: replay runs the
	// journal and steps until StepCount reaches this.
	Step int `json:"step"`
}

// Deployment records which constructor built the world and its
// parameters. Only the fields of the named Kind are meaningful.
type Deployment struct {
	Kind      string  `json:"kind"`
	N         int     `json:"n,omitempty"`         // random, hotspot
	Intensity float64 `json:"intensity,omitempty"` // poisson
	Hotspots  int     `json:"hotspots,omitempty"`  // hotspot
	Spread    float64 `json:"spread,omitempty"`    // hotspot
	Rows      int     `json:"rows,omitempty"`      // grid
	Cols      int     `json:"cols,omitempty"`      // grid
	// Points lists the positions of an explicit deployment. JSON
	// round-trips Go float64 values exactly (shortest representation that
	// parses back to the same bits), so positions — and every other float
	// in the format — survive encode/decode bit-identically.
	Points []geom.Point `json:"points,omitempty"`
}

// Options records every construction option, resolved (defaults filled
// in): the functional options of package selfstab (WithSeed, WithRange,
// ... — each documents its field) write this struct directly. Together
// with Deployment this is the Blueprint: rebuilding with the same options
// consumes the master seed's split streams in the same order, so the
// restored world starts bit-identical to the original's step zero.
type Options struct {
	Seed         int64   `json:"seed"`
	Range        float64 `json:"range"`
	DAG          bool    `json:"dag,omitempty"`
	Gamma        int64   `json:"gamma,omitempty"` // 0 = auto (delta²)
	Sticky       bool    `json:"sticky,omitempty"`
	Fusion       bool    `json:"fusion,omitempty"`
	Tau          float64 `json:"tau"`
	Slots        int     `json:"slots,omitempty"`
	CacheTTL     int     `json:"cache_ttl,omitempty"`
	Activation   float64 `json:"activation"`
	RowMajorIDs  bool    `json:"row_major_ids,omitempty"`
	IDs          []int64 `json:"ids,omitempty"`
	StableWindow int     `json:"stable_window"`
	// Tiles is retired: the engine no longer tiles its frontier. It stays a
	// format-2 wire field so older documents decode (Decode rejects unknown
	// fields) and re-snapshot to the same bytes; nothing acts on it.
	Tiles int `json:"tiles,omitempty"`
}

// Blueprint is the construction recipe: deployment plus options.
type Blueprint struct {
	Deploy  Deployment `json:"deploy"`
	Options Options    `json:"options"`
}

// FlowKind selects the inter-arrival process of a flow. It is spelled
// "cbr" or "poisson" on the wire.
type FlowKind int

const (
	// CBR injects at a constant bit rate: Rate packets per step, with a
	// fractional-credit accumulator so non-integer rates average out
	// exactly (0.25 means one packet every fourth step).
	CBR FlowKind = iota
	// Poisson injects a Poisson-distributed number of packets per step
	// with mean Rate — the classic memoryless workload.
	Poisson
)

var flowKindNames = []string{CBR: "cbr", Poisson: "poisson"}

// MarshalText implements encoding.TextMarshaler.
func (k FlowKind) MarshalText() ([]byte, error) { return enumText("flow kind", flowKindNames, int(k)) }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *FlowKind) UnmarshalText(b []byte) error {
	v, err := enumValue("flow kind", flowKindNames, b)
	*k = FlowKind(v)
	return err
}

// QueueDiscipline selects what a full per-node queue does with arrivals.
// It is spelled "droptail" or "drophead" on the wire.
type QueueDiscipline int

const (
	// DropTail rejects the arriving packet (FIFO tail drop). The default.
	DropTail QueueDiscipline = iota
	// DropHead evicts the oldest queued packet to admit the new one —
	// fresher packets are worth more under congestion.
	DropHead
)

var disciplineNames = []string{DropTail: "droptail", DropHead: "drophead"}

// MarshalText implements encoding.TextMarshaler.
func (d QueueDiscipline) MarshalText() ([]byte, error) {
	return enumText("queue discipline", disciplineNames, int(d))
}

// UnmarshalText implements encoding.TextUnmarshaler. The empty string is
// the default, as in documents that spell the field out.
func (d *QueueDiscipline) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*d = DropTail
		return nil
	}
	v, err := enumValue("queue discipline", disciplineNames, b)
	*d = QueueDiscipline(v)
	return err
}

func enumText(what string, names []string, v int) ([]byte, error) {
	if v < 0 || v >= len(names) {
		return nil, fmt.Errorf("snapshot: invalid %s %d", what, v)
	}
	return []byte(names[v]), nil
}

func enumValue(what string, names []string, b []byte) (int, error) {
	if v := slices.Index(names, string(b)); v >= 0 {
		return v, nil
	}
	return 0, fmt.Errorf("snapshot: unknown %s %q", what, b)
}

// Flow is one traffic workload, endpoints named by node identifier. Build
// flows with selfstab.CBRFlow, PoissonFlow or HotspotFlow and pass them
// in a TrafficConfig. The journal records a flow as given: a hotspot
// workload stays unexpanded (expansion draws from a split stream at apply
// time and reproduces on replay).
type Flow struct {
	Kind  FlowKind `json:"kind"`
	SrcID int64    `json:"src"`
	DstID int64    `json:"dst"`
	// Rate is the mean injection rate in packets per Δ(τ) step.
	Rate float64 `json:"rate"`
	// Start and Stop bound the steps the flow injects in, [Start, Stop]
	// (1-based, counted in completed protocol steps; Stop 0 means forever).
	Start int `json:"start,omitempty"`
	Stop  int `json:"stop,omitempty"`
	// HotspotSources > 0 makes the flow many-to-one: that many distinct
	// sources, drawn at attach time, each send to DstID (SrcID is unused).
	HotspotSources int `json:"hotspot_sources,omitempty"`
}

// TrafficConfig parameterizes the packet data plane attached to a
// Network. A spawn_flows op carries one with only Flows set.
type TrafficConfig struct {
	// QueueCap bounds each node's forwarding queue. Default 64.
	QueueCap int `json:"queue_cap,omitempty"`
	// Discipline is the queue-overflow policy. Default DropTail.
	Discipline QueueDiscipline `json:"discipline,omitempty"`
	// Budget is how many packets a node forwards per step (the link
	// capacity abstraction — one Δ(τ) step carries Budget transmissions
	// per node). Default 1.
	Budget int `json:"budget,omitempty"`
	// TTL drops packets exceeding this many hops (routing loops under a
	// churning assignment must not circulate forever). Default 64.
	TTL int `json:"ttl,omitempty"`
	// Flows is the workload; at least one flow is required.
	Flows []Flow `json:"flows"`
}

// ChurnConfig parameterizes the seeded churn schedule AttachChurn drives
// as a pre-step phase: every step it draws Poisson-distributed counts of
// arrivals, departures, crashes and sleeps, applies them to uniformly
// chosen victims, and wakes nodes whose sleep duration expired. All
// randomness comes from a dedicated stream of the network's seed, so a
// fixed seed reproduces the same churn — and the same ConvergenceStats
// and TrafficStats — at any parallelism.
type ChurnConfig struct {
	// ArrivalRate is the mean number of new nodes per step, placed
	// uniformly in the deployment region.
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	// DepartureRate is the mean number of permanent departures per step.
	DepartureRate float64 `json:"departure_rate,omitempty"`
	// CrashRate is the mean number of state-losing reboots per step.
	CrashRate float64 `json:"crash_rate,omitempty"`
	// SleepRate is the mean number of nodes duty-cycled off per step.
	SleepRate float64 `json:"sleep_rate,omitempty"`
	// SleepSteps is how many steps a scheduled sleep lasts. Default 10.
	SleepSteps int `json:"sleep_steps,omitempty"`
	// MinAlive pauses departures, crashes and sleeps while the alive
	// population is at or below this floor. Default 2.
	MinAlive int `json:"min_alive,omitempty"`
}

// EnergyConfig parameterizes the battery model attached to a Network.
//
// The five costs form one schedule: leave them ALL zero to use the
// reference schedule (the internal/energy Default*Cost constants — the
// per-field values noted below), or set any of them to specify the schedule yourself, in which
// case the fields you leave zero really cost zero (an explicit free term,
// e.g. RxCost 0 for a receive-free radio model, stays expressible).
type EnergyConfig struct {
	// Capacity is every node's initial battery in energy units. Default 1.
	Capacity float64 `json:"capacity,omitempty"`

	// IdleHeadCost is the per-step drain of serving as a cluster-head
	// (beaconing, aggregation, staying receive-ready for the cluster).
	// Reference schedule: 0.002.
	IdleHeadCost float64 `json:"idle_head_cost,omitempty"`
	// IdleMemberCost is the per-step drain of an ordinary awake node.
	// Reference schedule: 0.0002.
	IdleMemberCost float64 `json:"idle_member_cost,omitempty"`
	// SleepCost is the per-step drain while duty-cycled off — what
	// SleepNodes and the churn schedule's duty-cycling actually save.
	// Reference schedule: 0.00002.
	SleepCost float64 `json:"sleep_cost,omitempty"`
	// TxCost is the drain per transmitted data packet (one forwarding
	// event of the attached traffic plane). Reference schedule: 0.0005.
	TxCost float64 `json:"tx_cost,omitempty"`
	// RxCost is the drain per received data packet. Reference schedule:
	// 0.0002.
	RxCost float64 `json:"rx_cost,omitempty"`

	// Rotation enables energy-aware head rotation: each node's shared
	// density is scaled by its quantized remaining-energy fraction, so a
	// draining head loses the ≺ election online and the burden rotates —
	// the paper's Section 6 future work running live.
	Rotation bool `json:"rotation,omitempty"`
	// RotationLevels quantizes the rotation scale: the battery fraction is
	// rounded up to a multiple of 1/RotationLevels, so re-elections
	// trigger only when a battery crosses a level boundary, not every
	// step. Must be in [2, 1024] when Rotation is set. Default 8.
	RotationLevels int `json:"rotation_levels,omitempty"`
}

// DefenseConfig parameterizes the traffic-plane defenses installed by
// SetTrafficDefense. The zero value disables every defense. Defense
// drops are accounted separately from congestion (DropsAdmission,
// DropsRateLimit), so attack-vs-defense deltas are measurable in the
// ledger.
type DefenseConfig struct {
	// HeadAdmission turns on per-head token-bucket admission control: a
	// packet — injected or forwarded — enters a current cluster-head's
	// queue only if the head's bucket holds a token. Buckets hold up to
	// HeadBurst tokens and refill at HeadRate tokens per step (lazily, so
	// an idle head pays nothing). Arrivals beyond the bucket are dropped
	// and accounted as DropsAdmission — a flood aimed at a head exhausts
	// the bucket and starves itself, while steady legitimate traffic at or
	// below HeadRate passes untouched.
	HeadAdmission bool `json:"head_tokens,omitempty"`
	// HeadRate is the bucket refill rate in packets per step (required
	// > 0 when HeadAdmission is set).
	HeadRate float64 `json:"head_rate,omitempty"`
	// HeadBurst is the bucket capacity in packets (required >= 1 when
	// HeadAdmission is set). Buckets start full.
	HeadBurst float64 `json:"head_burst,omitempty"`
	// SourceCap bounds how many packets any single node may inject per
	// step; injections beyond the cap are refused at the source and
	// accounted as DropsRateLimit. 0 disables the cap.
	SourceCap int `json:"source_cap,omitempty"`
}

// Op is one journaled world mutation. Kind selects which payload fields
// are meaningful; Step is the completed-step count at which the op was
// applied (replay applies it after stepping to that count, before the
// next step).
type Op struct {
	Step    int            `json:"step"`
	Kind    string         `json:"kind"`
	Frac    float64        `json:"frac,omitempty"`   // inject_faults, set_auto_compact
	Points  []geom.Point   `json:"points,omitempty"` // add_nodes, set_positions
	IDs     []int64        `json:"ids,omitempty"`    // lifecycle ops, scale_density, evict_nodes
	Traffic *TrafficConfig `json:"traffic,omitempty"`
	Churn   *ChurnConfig   `json:"churn,omitempty"`
	Energy  *EnergyConfig  `json:"energy,omitempty"`
	Scale   float64        `json:"scale,omitempty"`   // scale_density
	Defense *DefenseConfig `json:"defense,omitempty"` // set_defense
}

// Clone returns a copy of the op that shares no slice with it: the
// journal keeps clones, so a caller that later edits the ids, points or
// flows it passed in cannot rewrite history. The scalar config payloads
// are pointed-to values the mutators build per call and never retain.
func (op Op) Clone() Op {
	op.Points = slices.Clone(op.Points)
	op.IDs = slices.Clone(op.IDs)
	if op.Traffic != nil {
		tc := *op.Traffic
		tc.Flows = slices.Clone(tc.Flows)
		op.Traffic = &tc
	}
	return op
}

// Snapshot is one checkpoint document.
type Snapshot struct {
	Header    Header    `json:"header"`
	Blueprint Blueprint `json:"blueprint"`
	Ops       []Op      `json:"ops"`
}

// New stamps a snapshot with the current header fields.
func New(bp Blueprint, ops []Op, step int) *Snapshot {
	return &Snapshot{
		Header:    Header{Magic: Magic, Version: Version, Seed: bp.Options.Seed, Step: step},
		Blueprint: bp,
		Ops:       ops,
	}
}

// Encode writes the snapshot as one indented JSON document. The output
// is deterministic: field order follows the struct declarations and
// floats use Go's shortest round-trippable form, so identical snapshots
// encode to identical bytes (the golden-file test pins this).
func (s *Snapshot) Encode(w io.Writer) error {
	if s.Header.Magic != Magic {
		return fmt.Errorf("snapshot: refusing to encode header with magic %q", s.Header.Magic)
	}
	if s.Header.Version != Version {
		return fmt.Errorf("snapshot: refusing to encode format version %d (this build writes %d)", s.Header.Version, Version)
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode parses one snapshot document, validating the header before
// trusting the body: a wrong magic or a version mismatch is a clear
// error naming both versions, never a silent misreplay.
func Decode(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	// Peek at the header alone first so a future-versioned document with
	// unknown body fields still produces the version error, not a parse
	// error.
	var head struct {
		Header Header `json:"header"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return nil, fmt.Errorf("snapshot: not a snapshot document: %w", err)
	}
	if head.Header.Magic != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (want %q)", head.Header.Magic, Magic)
	}
	if head.Header.Version != Version {
		return nil, fmt.Errorf("snapshot: format version %d not supported (this build reads version %d)", head.Header.Version, Version)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate applies the structural checks replay depends on.
func (s *Snapshot) validate() error {
	if s.Header.Step < 0 {
		return fmt.Errorf("snapshot: negative step %d", s.Header.Step)
	}
	switch s.Blueprint.Deploy.Kind {
	case DeployExplicit, DeployRandom, DeployPoisson, DeployHotspot, DeployGrid:
	default:
		return fmt.Errorf("snapshot: unknown deployment kind %q", s.Blueprint.Deploy.Kind)
	}
	prev := 0
	for i, op := range s.Ops {
		if op.Step < prev {
			return fmt.Errorf("snapshot: op %d (%s) at step %d after an op at step %d — journal out of order", i, op.Kind, op.Step, prev)
		}
		if op.Step > s.Header.Step {
			return fmt.Errorf("snapshot: op %d (%s) at step %d beyond the snapshot step %d", i, op.Kind, op.Step, s.Header.Step)
		}
		prev = op.Step
	}
	return nil
}
