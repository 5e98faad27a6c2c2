// Package energy is the per-node battery model that runs inside the
// simulator's Δ(τ) step loop, closing the loop the paper's Section 6
// leaves as future work: traffic load drains batteries, depletion kills
// nodes through the churn machinery (so every death is a disruption
// episode in the convergence ledger), and a quantized remaining-energy
// fraction can scale the shared density online so cluster-head burden
// rotates toward well-charged nodes while the network keeps running.
//
// Each step, every operating node pays a role-dependent idle cost (heads
// aggregate and forward their members' traffic, so they idle hotter than
// members), per-packet transmission and reception costs driven by the
// actual data-plane counters, and a reduced cost while duty-cycled — the
// whole point of SleepNodes-style scheduling. The accounting is one
// sequential node-index-order pass over preallocated arrays: it is
// allocation-free, and bit-identical for a fixed seed because the commit
// order — float accumulation, kills, rotation rescales — never varies and
// every input it reads (roles, traffic counters) is itself deterministic.
//
// The pass pays per node for the role read and the drain, not for the
// rotation arithmetic, and it reads dense arrays, not nodes:
//
//   - Roles are the protocol engine's own status and head arrays, read
//     once per step, so a node's role is two byte loads instead of a call
//     that follows the node's pointer. Only lifecycle ops, fault
//     injection and the guards write those arrays, and during the pass
//     only the Kill hook runs one: it changes the slot it kills, which the
//     pass has already charged (Scale writes neither array). So the role
//     read for node i is the one a per-node query would return.
//   - The data plane's counters arrive the same way, as two slices read
//     once per step.
//   - The ledger, the five costs and the slice headers are locals for the
//     loop, and the ledger is written back before every hook call and
//     every return. Each accumulator still receives the same float adds
//     in the same order, so the sums are bit-identical to updating the
//     ledger in place, and a hook sees the ledger it always saw.
//   - With rotation on, New builds a per-level floor table — floor[l] is
//     the smallest battery in [0, Capacity] whose level is at least l,
//     found by a binary search over float64 bit patterns — and a battery
//     is re-quantized only when it drops below the floor of its current
//     level. Quantization is monotone on [0, Capacity] and batteries only
//     drain, so that is exactly when its level can change.
//
// # Why the pass is sequential
//
// Engine.Step used to have a second body: from 4 096 nodes up (a
// private parallelThreshold) a worker pool pre-read every node's
// lifecycle, role and traffic counters into scratch arrays and a
// sequential commit loop "replayed exactly the inline pass's arithmetic"
// over them, with its own SetParallelism knob. It was measured at
// GOMAXPROCS 2 and deleted, on two grounds.
//
// No oracle ran it. go test -coverpkg=./... ./... with both bodies
// reported stepParallel at 0.0 %: every test that attached batteries had N ≤ 250,
// so the energy determinism test of the time, at 1 and 4 workers,
// compared the inline body with itself, while dataplane (20k), serve
// (50k) and every world of 4 096 nodes and up ran the other one.
// scripts/deadpaths.sh now fails CI on any function of a step-path
// package, of the root package or of internal/serve, internal/snapshot
// and internal/obs that the whole suite never executes.
//
// No row showed it paying. The fan-out spreads two to five indirect hook
// calls per node; the commit — float accumulation, kills, rotation
// rescales, all order-dependent — stays sequential either way. A whole
// quiescent step (traffic + energy phases), µs, with the two-body binary's
// own switch, three runs each:
//
//	world                  inline (SetParallelism(1))  parallel (default)
//	20k, idle costs only   229–262                     222–233
//	20k, convergecast      385–392                     428–481
//	50k, idle costs only   540–555                     504–554
//	50k, convergecast      856–943                     900–1 060
//
// A tie without traffic and ~10 % slower with it, plus 5 allocs a step for
// the goroutines. BenchmarkEnergyStep reads the same way: n=20000 427–617
// µs with the parallel body against 335–482 inline only, n=50000
// 861–1 346 against 790–1 074 (eight alternating rounds of the two test
// binaries on one 2-vCPU host whose noise is most of each range; inline
// only read lower in 8 of 8 and 7 of 8 rounds), and sim_digest is
// identical on heal, churn, dataplane and mixed for seeds 1 and 2 (serve
// replays wall-clock request arrivals, so its digest differs run to run on
// either side and is checked against its own restored twin). Traced,
// energy.phase_us read 539 → 383 on dataplane and 1 240 → 868 on serve
// when the parallel body went; no gain is claimed from one run a side. What parallelism is left is the
// step engine's flat worker split (runtime.forEach), which has its row
// (HealRound10k).
package energy

import (
	"fmt"
	"math"

	"selfstab/internal/obs"
	"selfstab/internal/runtime"
	"selfstab/internal/slot"
	"selfstab/internal/snapshot"
)

// Config is the journal's record (internal/snapshot documents every
// field): the engine takes it as the caller gave it.
type Config = snapshot.EnergyConfig

// The reference drain schedule: heads idle 10x hotter than members (they
// carry the cluster's control burden), sleep is 10x cheaper than member
// idle, and moving one packet costs more at the transmitter than at the
// receiver — the usual WSN radio asymmetry. All costs are in battery
// units (a full default battery holds 1.0).
const (
	DefaultIdleHeadCost   = 0.002
	DefaultIdleMemberCost = 0.0002
	DefaultSleepCost      = 0.00002
	DefaultTxCost         = 0.0005
	DefaultRxCost         = 0.0002
)

// fillDefaults takes the cost schedule as a whole: all five zero means
// the reference schedule; any non-zero field means the caller specified
// the schedule and the remaining zero fields genuinely cost zero.
func fillDefaults(c *Config) {
	if c.Capacity == 0 {
		c.Capacity = 1
	}
	if c.IdleHeadCost == 0 && c.IdleMemberCost == 0 && c.SleepCost == 0 && c.TxCost == 0 && c.RxCost == 0 {
		c.IdleHeadCost, c.IdleMemberCost, c.SleepCost = DefaultIdleHeadCost, DefaultIdleMemberCost, DefaultSleepCost
		c.TxCost, c.RxCost = DefaultTxCost, DefaultRxCost
	}
	if c.RotationLevels == 0 {
		c.RotationLevels = 8
	}
}

// validate rejects a non-positive capacity, negative costs (zero is
// legal: it disables that term) and a rotation quantization outside
// [2, maxLevels].
func validate(c *Config) error {
	if c.Capacity <= 0 {
		return fmt.Errorf("energy: capacity %v must be positive", c.Capacity)
	}
	if c.IdleHeadCost < 0 || c.IdleMemberCost < 0 || c.SleepCost < 0 || c.TxCost < 0 || c.RxCost < 0 {
		return fmt.Errorf("energy: negative cost in %+v", *c)
	}
	if c.Rotation && (c.RotationLevels < 2 || c.RotationLevels > maxLevels) {
		return fmt.Errorf("energy: rotation levels %d outside [2, %d]", c.RotationLevels, maxLevels)
	}
	return nil
}

// Hooks connects the battery model to the engine it instruments. Roles
// is required; the rest are optional.
type Hooks struct {
	// Roles returns the protocol engine's per-slot lifecycle status and
	// head bits, indexed by node (runtime.Engine.Roles). It is read once
	// per Step and once per Stats, and the pass reads a node's role off
	// the two arrays: a dead slot drains nothing, a sleeper pays the
	// sleep cost, an alive node the head or member idle cost.
	Roles func() (status []runtime.NodeStatus, head []bool)
	// Counters returns the data plane's cumulative per-node transmission
	// and reception counts, indexed by node; the model charges per-step
	// deltas. It is read once per Step and once at attach time for the
	// baseline. A node past the end of a slice (nil slices: no data plane
	// attached) counts 0. A nil hook means no data plane (idle costs
	// only). A counter that moved backwards (the data plane was
	// re-attached) re-baselines without charging.
	Counters func() (tx, rx []int64)
	// Kill permanently removes a node whose battery crossed zero. Routing
	// it through the churn machinery makes depletion a first-class
	// disruption episode. nil leaves depleted nodes running at zero.
	Kill func(i int) error
	// Scale installs node i's quantized remaining-energy fraction as its
	// density multiplier. Required when Config.Rotation is set.
	Scale func(i int, s float64) error
}

// maxLevels bounds the rotation quantization: anything finer than 1024
// bands re-elects on practically every step, defeating the quantization.
const maxLevels = 1024

// acc accumulates the drain ledger the hot path touches; reads are done
// at Stats time.
type acc struct {
	drainHead, drainMember, drainSleep float64
	drainTx, drainRx                   float64
	headSteps, memberSteps, sleepSteps int64
}

// Engine is the per-network battery model. It is not goroutine-safe; the
// protocol engine invokes Step from its post-guard hook, on one
// goroutine, after the traffic phase of the same step.
type Engine struct {
	cfg   Config
	hooks Hooks
	n     int

	battery  []float64
	depleted []bool
	level    []int16 // current rotation level (only meaningful with Rotation)
	lastTx   []int64
	lastRx   []int64

	// floor[l] is the smallest battery value in [0, Capacity] that
	// quantizes to level l or above (only built with Rotation). quantize
	// is monotone there and batteries only drain, so a node keeps its
	// level exactly while its battery stays at or above floor[level]: the
	// pass re-quantizes only on a crossing.
	floor []float64

	acc        acc
	firstDeath int // step of the first depletion, -1 while everyone lives
	deaths     int
	stepsRun   int

	// probe, when set, receives the depletion gauge each step; nil costs
	// one branch per Step (see internal/obs).
	probe obs.Probe
}

// New builds a battery model for n nodes with full batteries.
func New(n int, cfg Config, hooks Hooks) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("energy: %d nodes", n)
	}
	fillDefaults(&cfg)
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if hooks.Roles == nil {
		return nil, fmt.Errorf("energy: the Roles hook is required")
	}
	if cfg.Rotation && hooks.Scale == nil {
		return nil, fmt.Errorf("energy: rotation requires the Scale hook")
	}
	e := &Engine{
		cfg:        cfg,
		hooks:      hooks,
		n:          n,
		battery:    make([]float64, n),
		depleted:   make([]bool, n),
		level:      make([]int16, n),
		lastTx:     make([]int64, n),
		lastRx:     make([]int64, n),
		firstDeath: -1,
	}
	for i := range e.battery {
		e.battery[i] = cfg.Capacity
		e.level[i] = int16(cfg.RotationLevels)
	}
	// Baseline the traffic counters at attach time: the data plane may
	// have been running for many steps already, and history before the
	// batteries existed must not be charged as one giant first-step drain.
	if hooks.Counters != nil {
		tx, rx := hooks.Counters()
		copy(e.lastTx, tx)
		copy(e.lastRx, rx)
	}
	if cfg.Rotation {
		e.floor = make([]float64, cfg.RotationLevels+1)
		for l := range e.floor {
			e.floor[l] = e.levelFloor(int16(l))
		}
	}
	return e, nil
}

// levelFloor returns the smallest battery value in [0, Capacity] whose
// level is at least l. Non-negative float64s order like their bit
// patterns, so it is a binary search over those. The search stops at
// Capacity: quantize(Capacity) is the top level, and above it
// quantize(+Inf) wraps through int(math.Ceil(+Inf)) and is not monotone.
func (e *Engine) levelFloor(l int16) float64 {
	lo, hi := uint64(0), math.Float64bits(e.cfg.Capacity)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if e.quantize(math.Float64frombits(mid)) >= l {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float64frombits(lo)
}

// SetProbe attaches an instrumentation probe (nil detaches it). The
// probe is a pure observer — see internal/obs — so drain trajectories
// are bit-identical attached or not. Call only between steps.
func (e *Engine) SetProbe(p obs.Probe) { e.probe = p }

// Step advances the battery model by one Δ(τ) step: every operating node
// pays its role idle cost plus the tx/rx cost of the data-plane activity
// since the previous step, sleepers pay the sleep cost, and batteries
// that crossed zero are killed through the churn hook. step is the
// protocol's completed-step count. The pass is allocation-free.
//
//selfstab:mutator
//selfstab:hotpath
func (e *Engine) Step(step int) error {
	e.stepsRun++
	status, head := e.hooks.Roles()
	counters := e.hooks.Counters != nil
	var tx, rx []int64
	if counters {
		tx, rx = e.hooks.Counters()
	}
	// The ledger, costs and arrays are locals (the package comment says
	// why that is bit-identical): a goes back to e.acc before every hook
	// call and every return. No hook reallocates the arrays — Kill and
	// Scale act on the protocol engine; Resize and Compact run between
	// steps. Do not write a back in a defer: the closure would take its
	// address and keep it in memory.
	a := e.acc
	idleHead, idleMember, sleepCost := e.cfg.IdleHeadCost, e.cfg.IdleMemberCost, e.cfg.SleepCost
	txCost, rxCost := e.cfg.TxCost, e.cfg.RxCost
	rotation := e.cfg.Rotation
	battery, depleted, level, floor := e.battery, e.depleted, e.level, e.floor
	lastTx, lastRx := e.lastTx, e.lastRx
	for i := 0; i < e.n; i++ {
		if depleted[i] {
			continue
		}
		var drain float64
		switch status[i] {
		case runtime.StatusAlive:
			if head[i] {
				drain = idleHead
				a.drainHead += idleHead
				a.headSteps++
			} else {
				drain = idleMember
				a.drainMember += idleMember
				a.memberSteps++
			}
			if counters {
				t := counterAt(tx, i)
				if d := t - lastTx[i]; d > 0 {
					// Rounded before both sums: a fused multiply-add would
					// change the ledger on some architectures.
					cost := float64(float64(d) * txCost)
					drain += cost
					a.drainTx += cost
				}
				lastTx[i] = t
				r := counterAt(rx, i)
				if d := r - lastRx[i]; d > 0 {
					cost := float64(float64(d) * rxCost)
					drain += cost
					a.drainRx += cost
				}
				lastRx[i] = r
			}
		case runtime.StatusSleeping:
			drain = sleepCost
			a.drainSleep += sleepCost
			a.sleepSteps++
		default:
			continue // dead by churn: the battery outlives the node, untouched
		}
		b := battery[i] - drain
		if b <= 0 {
			battery[i] = 0
			depleted[i] = true
			e.deaths++
			if e.firstDeath < 0 {
				e.firstDeath = step
			}
			if e.hooks.Kill != nil {
				e.acc = a
				if err := e.hooks.Kill(i); err != nil {
					return killErr(i, err)
				}
			}
			continue
		}
		battery[i] = b
		// The negated compare re-quantizes a NaN battery too, as a plain
		// quantize would.
		if rotation && !(b >= floor[level[i]]) {
			if lvl := e.quantize(b); lvl != level[i] {
				level[i] = lvl
				e.acc = a
				if err := e.hooks.Scale(i, float64(lvl)/float64(e.cfg.RotationLevels)); err != nil {
					return scaleErr(i, err)
				}
			}
		}
	}
	e.acc = a
	if p := e.probe; p != nil {
		p.Counter(obs.CtrDepletions, int64(e.deaths))
	}
	return nil
}

// counterAt is c[i], or 0 past the end of c.
func counterAt(c []int64, i int) int64 {
	if i < len(c) {
		return c[i]
	}
	return 0
}

// killErr and scaleErr build the hook-failure errors off the hot path:
// Step is a declared hot path, and error construction is the one
// allocation its body would otherwise contain.
func killErr(i int, err error) error {
	return fmt.Errorf("energy: depletion kill of node %d: %w", i, err)
}

func scaleErr(i int, err error) error {
	return fmt.Errorf("energy: rotation scale of node %d: %w", i, err)
}

// quantize rounds a positive battery value up to its level in
// [1, Levels]: a full battery is Levels, and the level only drops when
// the battery crosses a 1/Levels boundary of the capacity.
func (e *Engine) quantize(b float64) int16 {
	levels := e.cfg.RotationLevels
	lvl := int(math.Ceil(b / e.cfg.Capacity * float64(levels)))
	if lvl < 1 {
		lvl = 1
	}
	if lvl > levels {
		lvl = levels
	}
	return int16(lvl)
}

// Resize grows the model to n nodes; new arrivals under churn start with
// a full battery. It never shrinks: dead slots are recycled only by
// Compact, under the engine-wide remap.
//
//selfstab:mutator
func (e *Engine) Resize(n int) {
	for len(e.battery) < n {
		e.battery = append(e.battery, e.cfg.Capacity)
		e.depleted = append(e.depleted, false)
		e.level = append(e.level, int16(e.cfg.RotationLevels))
		e.lastTx = append(e.lastTx, 0)
		e.lastRx = append(e.lastRx, 0)
	}
	if n > e.n {
		e.n = n
	}
}

// Compact applies the engine-wide dead-slot recycling remap (see
// runtime.Engine.CompactionRemap): batteries and counter baselines move
// to the survivors' new indices and dropped slots vanish. The drain
// ledger, depletion counters and first-death step are aggregates and
// carry over untouched, so EnergyStats is invariant across the call —
// a dropped slot was dead and had stopped draining anyway. Call only
// between steps.
//
//selfstab:mutator
func (e *Engine) Compact(r slot.Remap) error {
	if err := r.Check("energy", len(e.battery)); err != nil {
		return err
	}
	e.battery = slot.Apply(r, e.battery)
	e.depleted = slot.Apply(r, e.depleted)
	e.level = slot.Apply(r, e.level)
	e.lastTx = slot.Apply(r, e.lastTx)
	e.lastRx = slot.Apply(r, e.lastRx)
	e.n = r.N()
	return nil
}

// Remaining returns node i's battery in energy units (0 once depleted).
func (e *Engine) Remaining(i int) float64 {
	if i < 0 || i >= len(e.battery) {
		return 0
	}
	return e.battery[i]
}

// Rotation reports whether energy-aware head rotation is enabled.
func (e *Engine) Rotation() bool { return e.cfg.Rotation }

// Capacity returns the configured initial battery.
func (e *Engine) Capacity() float64 { return e.cfg.Capacity }
