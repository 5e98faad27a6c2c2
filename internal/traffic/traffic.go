// Package traffic is the packet-level data plane that runs inside the
// simulator's Δ(τ) step loop. The clustering exists so hierarchical
// routing scales; this package makes that claim falsifiable end to end:
// flow generators inject packets, a per-node forwarding engine moves them
// one hop per step through bounded queues over whatever routing the caller
// provides, and a metrics sink accounts for every packet — delivered,
// dropped (queue overflow, no route, TTL, dead endpoint, or refused by a
// defense: head admission control, source rate limit) or still in
// flight. The data plane survives churn: Resize grows it when nodes
// join, FlushNode accounts for queues lost to crashes and departures,
// and the Alive hook turns packets addressed to dead or sleeping
// endpoints into accounted drops instead of routing errors.
//
// The engine is deterministic: all randomness (Poisson inter-arrivals,
// endpoint sampling) is drawn from the caller's rng stream in flow order,
// and forwarding is a sequential pass in node-index order with staged
// arrivals, so a fixed seed reproduces the same packet trajectories
// regardless of how many workers the protocol engine itself uses.
//
// A step pays for its packets, not for the network's size. The
// forwarding pass walks a bitset of the nodes whose queue may hold
// packets, in ascending index order, so it reads N/64 words plus one
// visit per busy node and never sorts. Every one-hop move of the pass
// goes onto one flat staging list, admitted in staging order once the
// pass is over: admission touches only the receiver's queue and bucket,
// so only the order of arrivals within one receiver matters, and the
// staging order keeps it. The hot path is allocation-free at steady
// state: queues are fixed-size rings that wrap with a compare, the
// staging list is reused every step, and the latency histogram grows
// only to the maximum observed latency.
//
// A hop pays for the routing table once per flow per routing epoch, not
// once per packet. Each flow memoises its walk route[0] = Src,
// route[k+1] = NextHop(route[k], Dst) under the epoch the Epoch hook
// reports, filled lazily by the first packet to need each entry and
// capped at TTL+1 entries (route.go). A packet with k hops standing on
// route[k] takes route[k+1]; any other packet, such as one that took its
// first hops under an older epoch, asks the hook directly. Under one
// epoch NextHop is a pure function of (cur, dst), and every packet of a
// flow shares the flow's destination, so each memoised answer is the one
// the hook would give: trajectories and ledgers are bit-identical to
// asking on every hop.
package traffic

import (
	"fmt"
	"math/bits"

	"selfstab/internal/obs"
	"selfstab/internal/rng"
	"selfstab/internal/slot"
	"selfstab/internal/snapshot"
)

// Config, Defense and FlowKind are the journal's records
// (internal/snapshot documents every field): the engine takes them as the
// caller gave them instead of re-declaring them.
type (
	Config   = snapshot.TrafficConfig
	Defense  = snapshot.DefenseConfig
	FlowKind = snapshot.FlowKind
)

// Re-exported enum values.
const (
	DropTail = snapshot.DropTail
	DropHead = snapshot.DropHead
	CBR      = snapshot.CBR
	Poisson  = snapshot.Poisson
)

// Hooks connects the data plane to the control plane it routes over.
// NextHop, Epoch, Dist and TopoVersion are required.
type Hooks struct {
	// NextHop returns the neighbor a packet at cur takes toward dst, or
	// false when the routing layer has no route. Its answer must depend
	// only on (cur, dst) while Epoch is unchanged: the engine memoises it
	// per flow, so a packet following its flow's route asks at most once
	// per flow, hop index and epoch (see nextHop). Must not allocate on
	// the happy path.
	NextHop func(cur, dst int) (int, bool)
	// Epoch returns the routing epoch NextHop answers under: a key that
	// changes whenever any NextHop answer may. Read once per Step.
	Epoch func() uint64
	// Dist returns the flat shortest-path hop count between two nodes
	// (-1 when disconnected) — the baseline for path stretch. It is asked
	// only about the endpoints of a flow that delivered a packet after at
	// least one hop, at the end of the step that delivered it (so on the
	// topology at delivery), and at most once per flow per TopoVersion, so
	// it may search the graph.
	Dist func(src, dst int) int
	// TopoVersion returns the topology's version (topology.Graph.Version);
	// cached flat distances are reused while it is unchanged.
	TopoVersion func() uint64
	// Alive reports whether node i is currently an operating endpoint
	// (powered on and awake). nil means every node is always alive. A flow
	// whose source is not alive pauses (nothing offered, no rng draws,
	// no CBR credit); packets addressed to a not-alive destination become
	// DropsDeadEndpoint, at injection and at every forwarding hop.
	Alive func(i int) bool
	// IsHead reports whether node i is currently a cluster-head. The
	// admission-control defense guards head queues only, and consults it
	// only while a Defense with HeadAdmission is installed; Stats reads it
	// for every alive node (HeadLoadShare, HeadFraction). nil means no
	// node is ever a head.
	IsHead func(i int) bool
}

func validateDefense(d Defense) error {
	if d.HeadAdmission && (d.HeadRate <= 0 || d.HeadBurst < 1) {
		return fmt.Errorf("traffic: head admission needs rate > 0 and burst >= 1 (got rate %v, burst %v)", d.HeadRate, d.HeadBurst)
	}
	if d.SourceCap < 0 {
		return fmt.Errorf("traffic: negative source cap %d", d.SourceCap)
	}
	return nil
}

func fillDefaults(c *Config) {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.Budget == 0 {
		c.Budget = 1
	}
	if c.TTL == 0 {
		c.TTL = 64
	}
}

// Validate reports whether New accepts cfg with flows on an n-node
// network. It is pure, so a caller that splits the engine's rng stream
// off a shared parent can refuse a bad config before drawing from it.
func Validate(n int, cfg Config, flows []FlowSpec) error {
	if n < 1 {
		return fmt.Errorf("traffic: %d nodes", n)
	}
	fillDefaults(&cfg)
	if cfg.QueueCap < 1 {
		return fmt.Errorf("traffic: queue capacity %d < 1", cfg.QueueCap)
	}
	if cfg.Discipline != DropTail && cfg.Discipline != DropHead {
		return fmt.Errorf("traffic: invalid discipline %d", int(cfg.Discipline))
	}
	if cfg.Budget < 1 {
		return fmt.Errorf("traffic: per-node budget %d < 1", cfg.Budget)
	}
	if cfg.TTL < 1 {
		return fmt.Errorf("traffic: ttl %d < 1", cfg.TTL)
	}
	if len(flows) == 0 {
		return fmt.Errorf("traffic: no flows")
	}
	return ValidateFlows(n, flows)
}

// ValidateFlows is the per-flow half of Validate: what AddFlows accepts.
func ValidateFlows(n int, flows []FlowSpec) error {
	for i := range flows {
		if err := flows[i].validate(n); err != nil {
			return fmt.Errorf("traffic: flow %d: %w", i, err)
		}
	}
	return nil
}

// packet is one in-flight datagram. Packets live in ring buffers and the
// staging list, never on the heap individually.
type packet struct {
	flow int32 // index into Engine.flows
	dst  int32
	hops int32
	born int32 // step index at injection
}

// ring is a fixed-capacity FIFO of packets.
type ring struct {
	buf   []packet
	head  int
	count int
}

func (r *ring) init(cap int) { r.buf = make([]packet, cap) }

func (r *ring) full() bool { return r.count == len(r.buf) }

// at returns the slot k places behind the head. Both indices are below
// len(r.buf), so one subtraction wraps their sum.
func (r *ring) at(k int) *packet {
	i := r.head + k
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

func (r *ring) push(p packet) bool {
	if r.full() {
		return false
	}
	*r.at(r.count) = p
	r.count++
	return true
}

func (r *ring) pop() packet {
	p := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.count--
	return p
}

// arrival is one staged one-hop move: p enters node to's queue when the
// forwarding pass is over.
type arrival struct {
	to int32
	p  packet
}

// Engine is the per-network data plane. It is not goroutine-safe; the
// protocol engine invokes Step from its post-guard hook, on one goroutine.
type Engine struct {
	cfg   Config
	hooks Hooks
	src   *rng.Source
	n     int

	queues []ring
	flows  []flowState
	// routes are the per-flow next-hop memos (route.go), parallel to
	// flows; their walks are carved from arena. epoch is the routing
	// epoch of the current Step.
	routes []route
	arena  []int32
	epoch  uint64
	load   []int64 // forwarding events per node (transmissions)
	recv   []int64 // reception events per node (one per transmission, at the receiver)

	// busy is the forwarding worklist as a bitset: bit v is set when node
	// v's queue has taken a packet since the pass last found it empty, so
	// a queue whose bit is clear is always empty. The forwarding pass
	// walks the set bits in ascending order, which is the historical full
	// scan's visit order (and hence every queue interleaving) at N/64
	// words plus one visit per busy node; it clears the bit of a queue it
	// finds empty. Marking a node is one OR.
	busy []uint64
	// staged holds the forwarding pass's one-hop moves in the order the
	// pass made them; they are admitted in that order once it is over.
	staged []arrival
	// sampled holds this step's delivered packets that took a hop, whose
	// stretch samples phase 4 takes.
	sampled []packet

	// Defense state (nil slices while no defense is installed — the
	// undefended hot path pays one zero-compare per packet). tokens and
	// tokensAt are the per-head buckets, refilled lazily against the step
	// clock (tokensAt -1: untouched, the bucket starts full). injCount and
	// injAt implement the per-source per-step injection cap without an
	// O(N) per-step reset: a stale injAt stamp means "nothing injected
	// this step yet".
	defense  Defense
	tokens   []float64
	tokensAt []int32
	injCount []int32
	injAt    []int32

	// Retired accounting: per-node counters of slots dropped by Compact,
	// folded into Stats totals so the ledger is invariant across a
	// compaction (a dead node's forwarding history doesn't vanish with
	// its slot).
	retiredLoad    int64
	retiredRecv    int64
	retiredMaxLoad int64

	acc      acc
	step     int // the protocol's absolute completed-step count
	stepsRun int // how many steps this data plane itself has run

	// probe, when set, receives per-step forwarding and occupancy
	// counters; nil costs one branch per Step (see internal/obs).
	probe obs.Probe
}

// New builds a data plane for n nodes running flows. cfg.Flows — the
// caller's identifier-keyed form of the workload — is not read: flows is
// that workload resolved to node indices. The rng source feeds all
// workload randomness; pass a dedicated Split so traffic draws never
// perturb the protocol's streams.
func New(n int, cfg Config, flows []FlowSpec, hooks Hooks, src *rng.Source) (*Engine, error) {
	if hooks.NextHop == nil || hooks.Epoch == nil || hooks.Dist == nil || hooks.TopoVersion == nil {
		return nil, fmt.Errorf("traffic: all hooks are required")
	}
	if src == nil {
		return nil, fmt.Errorf("traffic: nil rng source")
	}
	if err := Validate(n, cfg, flows); err != nil {
		return nil, err
	}
	fillDefaults(&cfg)
	cfg.Flows = nil
	e := &Engine{
		cfg:    cfg,
		hooks:  hooks,
		src:    src,
		n:      n,
		queues: make([]ring, n),
		load:   make([]int64, n),
		recv:   make([]int64, n),
		busy:   make([]uint64, words(n)),
		flows:  make([]flowState, len(flows)),
		routes: make([]route, len(flows)),
	}
	for i := range e.queues {
		e.queues[i].init(cfg.QueueCap)
	}
	for i := range e.flows {
		e.flows[i] = flowState{spec: flows[i], flatDist: -2}
	}
	return e, nil
}

// SetProbe attaches an instrumentation probe (nil detaches it). The
// probe is a pure observer — see internal/obs — so trajectories are
// bit-identical attached or not. Call only between steps.
func (e *Engine) SetProbe(p obs.Probe) { e.probe = p }

// SetDefense installs (or, with the zero value, removes) the attack
// mitigations. Buckets and injection counters reset: heads start with a
// full bucket. Call only between steps. A failed validation mutates
// nothing.
//
//selfstab:mutator
func (e *Engine) SetDefense(d Defense) error {
	if err := validateDefense(d); err != nil {
		return err
	}
	e.defense = d
	e.tokens, e.tokensAt = nil, nil
	e.injCount, e.injAt = nil, nil
	if d.HeadAdmission {
		e.tokens = make([]float64, len(e.queues))
		e.tokensAt = make([]int32, len(e.queues))
		for i := range e.tokensAt {
			e.tokensAt[i] = -1
		}
	}
	if d.SourceCap > 0 {
		e.injCount = make([]int32, len(e.queues))
		e.injAt = make([]int32, len(e.queues))
		for i := range e.injAt {
			e.injAt[i] = -1
		}
	}
	return nil
}

// AddFlows appends workloads to the running data plane. Queues, the
// ledger and every existing flow's accumulators are untouched — unlike a
// re-attach, the delivery history across the append stays continuous,
// which is what makes "delivery ratio before vs during a flood"
// measurable in one run. All specs are validated against the current
// node count first, so a failed call mutates nothing.
//
//selfstab:mutator
func (e *Engine) AddFlows(specs []FlowSpec) error {
	if err := ValidateFlows(len(e.queues), specs); err != nil {
		return err
	}
	for _, s := range specs {
		e.flows = append(e.flows, flowState{spec: s, flatDist: -2})
		e.routes = append(e.routes, route{})
	}
	return nil
}

// takeToken refills head v's bucket against the step clock and consumes
// one token if available. Per-node arithmetic on one goroutine:
// deterministic at any parallelism.
//
//selfstab:hotpath
func (e *Engine) takeToken(v int) bool {
	if e.tokensAt[v] < 0 {
		e.tokens[v] = e.defense.HeadBurst
		e.tokensAt[v] = int32(e.step)
	} else if dt := e.step - int(e.tokensAt[v]); dt > 0 {
		e.tokens[v] = min(e.defense.HeadBurst, e.tokens[v]+float64(e.defense.HeadRate*float64(dt)))
		e.tokensAt[v] = int32(e.step)
	}
	if e.tokens[v] >= 1 {
		e.tokens[v]--
		return true
	}
	return false
}

// headRefuses reports whether head v's admission bucket refuses one
// arriving packet. It gates every arrival at a head — transit packets
// entering the queue AND packets addressed to the head itself — so a
// flood aimed at a head exhausts the bucket instead of the head. False
// whenever the HeadAdmission defense is off or v is not currently a head.
//
//selfstab:hotpath
func (e *Engine) headRefuses(v int) bool {
	return e.tokens != nil && e.hooks.IsHead != nil && e.hooks.IsHead(v) && !e.takeToken(v)
}

// Step advances the data plane by one Δ(τ) step: flows inject, every node
// forwards up to Budget queued packets one hop, staged arrivals merge into
// the destination queues, and the step's deliveries take their stretch
// samples. step is the protocol's completed-step count.
//
//selfstab:mutator
//selfstab:hotpath
func (e *Engine) Step(step int) error {
	e.step = step
	e.stepsRun++
	e.epoch = e.hooks.Epoch()
	var forwarded int64
	rejects0 := e.acc.dropsAdmission + e.acc.dropsRateLimit

	// Phase 1: injection, in flow order (all randomness drawn here, on one
	// stream, so trajectories are worker-count independent). Flows with a
	// dead or sleeping source are paused entirely.
	for fi := range e.flows {
		f := &e.flows[fi]
		if !e.alive(f.spec.Src) {
			continue
		}
		for range f.arrivalsThisStep(step, e.src) {
			e.inject(fi, f)
		}
	}

	// Phase 2: forwarding, over the busy bitset in node-index order — the
	// same visit sequence as a full scan over non-empty queues, at O(N/64
	// + busy) instead of O(N). Moves are staged so a packet advances
	// exactly one hop per step no matter the node order. Dead nodes'
	// queues were flushed when they died; a sleeping node's queue is
	// frozen until it wakes (its bit idles with it). The bit of a queue
	// that emptied since the last pass is cleared here. The pass sets no
	// bit (it only stages), so each word is read once up front.
	for wi, word := range e.busy {
		for word != 0 {
			u := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			q := &e.queues[u]
			if q.count == 0 {
				e.busy[wi] &^= 1 << (u & 63)
				continue
			}
			if !e.alive(u) {
				continue
			}
			forwarded += e.forward(u, q)
		}
	}

	// Phase 3: admit the staged moves in staging order. admit(v, ·)
	// touches only v's queue, v's bucket and counters whose increments
	// commute, so only the order of arrivals within one receiver matters
	// (it decides the FIFO and the overflow casualties), and the staging
	// order is the order phase 2 fixed for it.
	for _, a := range e.staged {
		e.admit(int(a.to), a.p)
	}
	e.staged = e.staged[:0]

	// Phase 4: the stretch samples, in delivery order. The baseline is the
	// flat distance on the topology at delivery, cached per flow per
	// topology version. The topology does not move within a step, so the
	// searches behind it run here, back to back: interleaved with the
	// forwarding moves they found less of the graph in cache, which cost
	// the dataplane workload's setup about a tenth.
	for _, p := range e.sampled {
		if d := e.flows[p.flow].refreshFlatDist(e.hooks); d > 0 {
			e.acc.stretchSum += float64(p.hops) / float64(d)
			e.acc.stretchCount++
		}
	}
	e.sampled = e.sampled[:0]
	if p := e.probe; p != nil {
		p.Counter(obs.CtrTrafficForwarded, forwarded)
		p.Counter(obs.CtrQueueOccupancy, e.InFlight())
		if d := e.acc.dropsAdmission + e.acc.dropsRateLimit - rejects0; d > 0 {
			p.Counter(obs.CtrAdmissionRejects, d)
		}
	}
	return nil
}

// forward sends up to Budget packets from node u's queue q one hop each
// and returns how many it transmitted. Deliveries complete here; every
// other move is staged for phase 3.
//
//selfstab:hotpath
func (e *Engine) forward(u int, q *ring) int64 {
	var sent int64
	for b := e.cfg.Budget; b > 0 && q.count > 0; b-- {
		p := q.pop()
		if !e.alive(int(p.dst)) {
			// The endpoint died or went to sleep while the packet was in
			// flight: an accounted drop, never a routing panic.
			e.acc.dropsDeadEndpoint++
			e.flows[p.flow].dropped++
			continue
		}
		next, ok := e.nextHop(u, p)
		if !ok || next == u {
			e.acc.dropsNoRoute++
			e.flows[p.flow].dropped++
			continue
		}
		p.hops++
		if int(p.hops) > e.cfg.TTL {
			e.acc.dropsTTL++
			e.flows[p.flow].dropped++
			continue
		}
		// Only actual transmissions count as forwarding load; packets
		// dropped above never left the node. Every transmission has
		// exactly one receiver (next — the destination itself on the
		// final hop), which pays the radio reception: the tx/rx pair the
		// energy subsystem charges per packet.
		e.load[u]++
		e.recv[next]++
		sent++
		if next == int(p.dst) {
			if e.headRefuses(next) {
				// Admission applies to the final hop too: a head whose
				// bucket is dry sheds the load instead of absorbing it.
				e.acc.dropsAdmission++
				e.flows[p.flow].dropped++
				continue
			}
			e.deliver(p)
			continue
		}
		e.staged = append(e.staged, arrival{to: int32(next), p: p})
	}
	return sent
}

// alive applies the optional liveness hook (nil: everything is alive).
// Negative indices — the post-compaction sentinel for a recycled
// endpoint — are never alive.
func (e *Engine) alive(i int) bool {
	if i < 0 {
		return false
	}
	return e.hooks.Alive == nil || e.hooks.Alive(i)
}

// words is the length of a bitset over n nodes.
func words(n int) int { return (n + 63) >> 6 }

// markBusy sets node v's bit in the forwarding worklist.
//
//selfstab:hotpath
func (e *Engine) markBusy(v int) { e.busy[v>>6] |= 1 << (v & 63) }

// inject creates one packet on flow fi and enqueues it at the source.
//
//selfstab:hotpath
func (e *Engine) inject(fi int, f *flowState) {
	e.acc.offered++
	f.offered++
	src, dst := f.spec.Src, f.spec.Dst
	if e.injCount != nil {
		// Per-source rate limit: the source NIC refuses the packet before
		// it is addressed. Counted offered (the workload generated it) and
		// dropped under the defense's own reason.
		if e.injAt[src] != int32(e.step) {
			e.injAt[src] = int32(e.step)
			e.injCount[src] = 0
		}
		if int(e.injCount[src]) >= e.defense.SourceCap {
			e.acc.dropsRateLimit++
			f.dropped++
			return
		}
		e.injCount[src]++
	}
	if !e.alive(dst) {
		// Addressed to a dead or sleeping endpoint: accounted and dropped
		// at the source, it never consumes queue space or forwarding.
		e.acc.dropsDeadEndpoint++
		f.dropped++
		return
	}
	if src == dst {
		// Degenerate self-flow: delivered instantly, zero hops (the
		// regression contract for Src == Dst flow specs — see validate).
		p := packet{flow: int32(fi), dst: int32(dst), born: int32(e.step)}
		e.deliver(p)
		return
	}
	e.admit(src, packet{flow: int32(fi), dst: int32(dst), born: int32(e.step)})
}

// admit pushes p onto node v's queue, applying the overflow discipline,
// and keeps v on the forwarding worklist. Exactly one packet dies on
// overflow: the arrival under DropTail, the oldest queued packet under
// DropHead (per-flow drop accounting follows the casualty).
//
//selfstab:hotpath
func (e *Engine) admit(v int, p packet) {
	if e.headRefuses(v) {
		// Head admission control: the bucket is dry, the head refuses the
		// packet before it occupies queue space or forwarding budget.
		e.acc.dropsAdmission++
		e.flows[p.flow].dropped++
		return
	}
	q := &e.queues[v]
	if q.push(p) {
		e.markBusy(v)
		return
	}
	e.acc.dropsQueue++
	if e.cfg.Discipline == DropHead {
		victim := q.pop()
		q.push(p)
		e.flows[victim.flow].dropped++
		return
	}
	e.flows[p.flow].dropped++
}

// deliver finalizes a packet at its destination.
//
//selfstab:hotpath
func (e *Engine) deliver(p packet) {
	f := &e.flows[p.flow]
	e.acc.delivered++
	f.delivered++
	e.acc.hopTotal += int64(p.hops)
	// Latency counts the steps the packet spent in the network, injection
	// step included, so an uncongested h-hop path has latency exactly h
	// and queueing shows up as the excess over MeanHops.
	latency := 0
	if p.hops > 0 {
		latency = e.step - int(p.born) + 1
	}
	e.acc.observeLatency(latency)
	if p.hops > 0 {
		e.sampled = append(e.sampled, p)
	}
}

// Resize grows the data plane to n nodes (new arrivals under churn get
// empty queues). It never shrinks: dead slots are recycled only by
// Compact, under the engine-wide remap.
//
//selfstab:mutator
func (e *Engine) Resize(n int) {
	for len(e.queues) < n {
		e.queues = append(e.queues, ring{})
		e.queues[len(e.queues)-1].init(e.cfg.QueueCap)
		e.load = append(e.load, 0)
		e.recv = append(e.recv, 0)
		if len(e.busy) < words(len(e.queues)) {
			e.busy = append(e.busy, 0)
		}
		if e.tokens != nil {
			e.tokens = append(e.tokens, 0)
			e.tokensAt = append(e.tokensAt, -1) // newcomers start with a full bucket
		}
		if e.injCount != nil {
			e.injCount = append(e.injCount, 0)
			e.injAt = append(e.injAt, -1)
		}
	}
	if n > e.n {
		e.n = n
	}
}

// Compact applies the engine-wide dead-slot recycling remap (see
// runtime.Engine.CompactionRemap): per-node state moves to the
// survivors' new indices, in-flight packets have their destination
// renumbered (a destination whose slot was dropped becomes the negative
// never-alive sentinel and is accounted a dead-endpoint drop when it is
// next popped, exactly as before the compaction), and flow endpoints are
// renumbered the same way. The forwarding history of dropped slots folds
// into retired counters so the ledger is invariant across the call.
// Dropped slots' queues must already be empty — the churn layer flushes
// a queue at its node's death. Call only between steps.
//
//selfstab:mutator
func (e *Engine) Compact(r slot.Remap) error {
	if err := r.Check("traffic", len(e.queues)); err != nil {
		return err
	}
	for old := range e.queues {
		if r.Of(old) >= 0 {
			continue
		}
		if e.queues[old].count != 0 {
			return fmt.Errorf("traffic: compacting node %d with %d queued packets (flush it first)", old, e.queues[old].count)
		}
		e.retiredLoad += e.load[old]
		e.retiredRecv += e.recv[old]
		if e.load[old] > e.retiredMaxLoad {
			e.retiredMaxLoad = e.load[old]
		}
	}
	e.queues = slot.Apply(r, e.queues)
	e.load = slot.Apply(r, e.load)
	e.recv = slot.Apply(r, e.recv)
	e.tokens = slot.Apply(r, e.tokens)
	e.tokensAt = slot.Apply(r, e.tokensAt)
	e.injCount = slot.Apply(r, e.injCount)
	e.injAt = slot.Apply(r, e.injAt)
	old := e.busy
	e.busy = make([]uint64, words(r.N()))
	for wi, word := range old {
		for word != 0 {
			u := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if nw := r.Of(u); nw >= 0 {
				e.markBusy(nw)
			}
		}
	}
	for i := range e.queues {
		q := &e.queues[i]
		for k := 0; k < q.count; k++ {
			p := q.at(k)
			if p.dst >= 0 {
				p.dst = int32(r.Of(int(p.dst))) // -1 for a dropped destination
			}
		}
	}
	for i := range e.flows {
		f := &e.flows[i]
		if f.spec.Src >= 0 {
			// A dropped source pauses the flow forever — exactly its
			// behavior while the source slot was dead.
			f.spec.Src = r.Of(f.spec.Src)
		}
		if f.spec.Dst >= 0 {
			// A dropped destination turns every injection into a
			// dead-endpoint drop, as it already did.
			f.spec.Dst = r.Of(f.spec.Dst)
		}
		// The cached flat distance stays: compaction relabels the graph
		// isomorphically, so the value is still the distance at its
		// version. Compaction advances the graph's version, which
		// triggers the (value-identical) recompute at the flow's next
		// delivery.
	}
	for i := range e.routes {
		e.routes[i].walk = e.routes[i].walk[:0] // it holds old slot indices
	}
	e.n = r.N()
	return nil
}

// FlushNode drops every packet queued at node i, accounting each as a
// dead-endpoint drop — the fate of a queue lost to a crash or a permanent
// departure. (A sleeping node's queue is not flushed; it is frozen until
// the node wakes.)
//
//selfstab:mutator
func (e *Engine) FlushNode(i int) {
	if i < 0 || i >= len(e.queues) {
		return
	}
	q := &e.queues[i]
	for q.count > 0 {
		p := q.pop()
		e.acc.dropsDeadEndpoint++
		e.flows[p.flow].dropped++
	}
}

// InFlight returns how many packets are currently queued. It sums only
// the queues whose busy bit is set: a queue outside the bitset is empty.
func (e *Engine) InFlight() int64 {
	total := int64(0)
	for wi, word := range e.busy {
		for word != 0 {
			total += int64(e.queues[wi<<6|bits.TrailingZeros64(word)].count)
			word &= word - 1
		}
	}
	return total
}

// Counters returns the per-node cumulative transmission and reception
// counts without copying: the allocation-free per-step read the energy
// subsystem charges tx/rx costs from. Every transmission in tx has exactly
// one matching reception in rx, so the two totals are equal. The slices
// are the engine's own; they stay valid until the next Resize or Compact.
func (e *Engine) Counters() (tx, rx []int64) { return e.load, e.recv }
