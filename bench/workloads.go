package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"selfstab"
	"selfstab/internal/obs"
	"selfstab/internal/snapshot"
)

// refSeconds is the window budget the counts below were sized for: at this
// commit, on the 2-core reference host, each window takes about this long.
// It equals run_seconds in BENCHMARK.json. A run given another --seconds
// scales every count by seconds/refSeconds, so a window is always a fixed
// count of operations: simulated statistics repeat exactly for a seed, and
// both sides of a comparison run the same work.
const refSeconds = 8

// setupRepeats is how many times an untraced run sets its world up;
// setup_s is the median. The run continues with the last world built.
const setupRepeats = 3

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"heal", "churn", "dataplane", "mixed", "serve"}

// libWorkload is one of the four closed-loop, single-caller workloads that
// drive the library directly.
type libWorkload struct {
	nodes  int // N; the radio range gives mean degree 10 at any N
	warmup int // steps between attaching the planes and the window
	count  int // timed steps (rounds, on heal) in a refSeconds window
	// rounds makes the window count rounds of InjectFaults(1.0) →
	// Stabilize instead of single steps.
	rounds bool
	// attach installs the workload's planes on a stabilized world.
	attach func(r *run, net *selfstab.Network, rng *rand.Rand) error
	// midway runs once, a third of the way into the window.
	midway func(net *selfstab.Network) error
	// routing says the workload has a data plane, so the routing tables
	// are part of it and the traced run times queries against them.
	routing bool
}

var libWorkloads = map[string]libWorkload{
	// Every node is corrupted each round, so the frontier saturates and
	// the dense step body and the guards do nearly all the work.
	"heal": {nodes: 50000, count: 10, rounds: true},

	// About 10 lifecycle ops a step on a quiet clustering: the sparse
	// frontier, the incremental grid index, the convergence ledger and
	// compaction do the work; there is no data plane.
	"churn": {nodes: 20000, warmup: 100, count: 1400,
		attach: func(r *run, net *selfstab.Network, _ *rand.Rand) error {
			if err := net.AttachChurn(selfstab.ChurnConfig{
				ArrivalRate: 3 * r.scale, DepartureRate: 1.5 * r.scale,
				CrashRate: 1.5 * r.scale, SleepRate: 4 * r.scale, SleepSteps: 20,
			}); err != nil {
				return err
			}
			// Low enough that the departures of one window trigger
			// several compactions: they are the slow steps here.
			return net.SetAutoCompact(0.02)
		}},

	// Static topology, quiescent clustering: forwarding, queues and energy
	// accounting do the work and the routing table is built once. A third
	// of the way in the defenses go up and a head flood starts, so the same
	// traffic layer is also measured refusing packets.
	//
	// The warm-up is long enough for every flow to deliver once, because
	// the first delivery from a source pays for that source's row of the
	// flat-distance table. The world is some 110 hops across, hence the TTL.
	"dataplane": {nodes: 20000, warmup: 200, count: 2800, routing: true,
		attach: func(r *run, net *selfstab.Network, rng *rand.Rand) error {
			flows := randomFlows(net, rng, r.scaled(500), 0.1)
			ids := net.IDs()
			for i := 0; i < 4; i++ {
				flows = append(flows, selfstab.HotspotFlow(ids[rng.Intn(len(ids))], r.scaled(50), 0.1))
			}
			if err := net.AttachTraffic(selfstab.TrafficConfig{Flows: flows, Budget: 4, TTL: 256}); err != nil {
				return err
			}
			// A battery this large crosses no rotation level in the
			// window, so energy only accounts and never re-elects.
			return net.AttachEnergy(selfstab.EnergyConfig{Capacity: 1e6, Rotation: true})
		},
		midway: func(net *selfstab.Network) error {
			if err := net.SetTrafficDefense(selfstab.DefenseConfig{
				HeadAdmission: true, HeadRate: 1, HeadBurst: 4, SourceCap: 1,
			}); err != nil {
				return err
			}
			_, err := net.FloodHeads(50, 2)
			return err
		}},

	// serve -preload mixed through the library: traffic, energy with
	// rotation and churn together, so the engine epoch moves nearly every
	// step and the routing tables rebuild each step.
	"mixed": {nodes: 2000, warmup: 50, count: 260, routing: true,
		attach: func(r *run, net *selfstab.Network, rng *rand.Rand) error {
			if err := net.AttachTraffic(selfstab.TrafficConfig{
				Flows: randomFlows(net, rng, r.scaled(250), 0.1),
			}); err != nil {
				return err
			}
			if err := net.AttachEnergy(selfstab.EnergyConfig{Rotation: true}); err != nil {
				return err
			}
			return net.AttachChurn(selfstab.ChurnConfig{
				ArrivalRate: 1 * r.scale, DepartureRate: 0.5 * r.scale,
				CrashRate: 0.5 * r.scale, SleepRate: 1 * r.scale, SleepSteps: 20,
			})
		}},
}

// scaled applies the run's scale to a world-size-dependent quantity.
func (r *run) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*r.scale)))
}

// windowCount is the window's fixed operation count for this run.
func (r *run) windowCount(base int) int {
	return max(1, int(math.Round(float64(base)*r.scale*r.seconds/refSeconds)))
}

// rng returns the run's input generator. The program sees only what it
// generates; the same seed gives the same inputs.
func (r *run) rng() *rand.Rand { return rand.New(rand.NewSource(r.seed)) }

// newWorld deploys n uniform nodes with the range that gives mean degree 10.
func (r *run) newWorld(n int) (*selfstab.Network, error) {
	return selfstab.NewRandomNetwork(n, selfstab.WithSeed(r.seed),
		selfstab.WithRange(math.Sqrt(10/(math.Pi*float64(n)))), selfstab.WithCacheTTL(8))
}

// randomFlows draws count unicast flows between distinct random nodes,
// alternating CBR and Poisson.
func randomFlows(net *selfstab.Network, rng *rand.Rand, count int, rate float64) []selfstab.Flow {
	ids := net.IDs()
	flows := make([]selfstab.Flow, 0, count)
	for len(flows) < count {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		if len(flows)%2 == 0 {
			flows = append(flows, selfstab.CBRFlow(src, dst, rate))
		} else {
			flows = append(flows, selfstab.PoissonFlow(src, dst, rate))
		}
	}
	return flows
}

// setupTimes are the harness spans of one world's set-up.
type setupTimes struct {
	construct, stabilize, attach, warmup time.Duration
	stabilizeSteps                       int
}

func (s setupTimes) total() time.Duration {
	return s.construct + s.stabilize + s.attach + s.warmup
}

// setup builds one world: construct, cold Stabilize, attach, warm-up.
func (r *run) setup(nodes, warmup int, attach func(*selfstab.Network) error) (*selfstab.Network, setupTimes, error) {
	var (
		net *selfstab.Network
		st  setupTimes
		err error
	)
	r.tr.begin("setup")
	defer r.tr.end()
	st.construct = r.span("construct", func() { net, err = r.newWorld(r.scaled(nodes)) })
	if err != nil {
		return nil, st, fmt.Errorf("construct: %w", err)
	}
	st.stabilize = r.span("stabilize", func() { st.stabilizeSteps, err = net.Stabilize(5000) })
	if err != nil {
		return nil, st, fmt.Errorf("cold stabilize: %w", err)
	}
	st.attach = r.span("attach", func() {
		if attach != nil {
			err = attach(net)
		}
	})
	if err != nil {
		return nil, st, fmt.Errorf("attach: %w", err)
	}
	st.warmup = r.span("warmup", func() { err = net.Run(warmup) })
	if err != nil {
		return nil, st, fmt.Errorf("warm-up: %w", err)
	}
	return net, st, nil
}

// window is what one timed window measured.
type window struct {
	opMs     []float64 // host time of each operation: a step, or a round's Stabilize
	opSteps  []float64 // simulated steps each operation executed
	injectMs []float64 // heal: host time of each InjectFaults
	toStable []float64 // heal: steps to the last change, per round
	mem      memDelta
}

// rateBlocks is how many equal blocks of operations a window is cut into
// for steps_per_s.
const rateBlocks = 16

// stepsPerSecond is the median, over the window's blocks, of steps executed
// per host second in the block. The reference host changes speed for seconds
// at a time; the rate over the whole window moves with every such episode,
// the median block's rate only when most of the window is affected.
func (w window) stepsPerSecond() float64 {
	per := (len(w.opMs) + rateBlocks - 1) / rateBlocks
	var rates []float64
	for lo := 0; lo < len(w.opMs); lo += per {
		hi := min(lo+per, len(w.opMs))
		var steps, millis float64
		for i := lo; i < hi; i++ {
			steps += w.opSteps[i]
			millis += w.opMs[i]
		}
		rates = append(rates, 1e3*steps/millis)
	}
	return median(rates)
}

// runWindow executes the workload's fixed count of operations, timing each.
func (r *run) runWindow(w libWorkload, net *selfstab.Network) window {
	count := r.windowCount(w.count)
	win := window{opMs: make([]float64, 0, count)}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.tr.begin("window")
	for i := 0; i < count; i++ {
		before := net.StepCount()
		if w.rounds {
			r.tr.begin("round")
			win.injectMs = append(win.injectMs, ms(r.span("inject", func() { net.InjectFaults(1.0) })))
			var (
				last int
				err  error
			)
			d := r.span("stabilize", func() { last, err = net.Stabilize(5000) })
			r.tr.end()
			r.op(err)
			win.opMs = append(win.opMs, ms(d))
			win.opSteps = append(win.opSteps, float64(net.StepCount()-before))
			win.toStable = append(win.toStable, float64(last))
			continue
		}
		if w.midway != nil && i == count/3 {
			r.op(w.midway(net))
		}
		var err error
		d := r.span("step", func() { err = net.Step() })
		r.op(err)
		win.opMs = append(win.opMs, ms(d))
		win.opSteps = append(win.opSteps, float64(net.StepCount()-before))
	}
	r.tr.end()
	win.mem = memSince(&mem)
	return win
}

// settle quiesces the world after the window: the planes are detached (their
// ledgers stay readable) and the protocol runs until it is stable, so that
// Verify applies and the digest covers a settled state.
func (r *run) settle(net *selfstab.Network) {
	net.DetachChurn()
	net.DetachEnergy()
	net.DetachTraffic()
	_, err := net.Stabilize(5000)
	r.op(err)
}

// setupLib sets up one world of a library workload.
func (r *run) setupLib(w libWorkload) (*selfstab.Network, setupTimes, error) {
	return r.setup(w.nodes, w.warmup, func(net *selfstab.Network) error {
		if w.attach == nil {
			return nil
		}
		return w.attach(r, net, r.rng())
	})
}

// runLibrary runs one library workload. The untraced run sets the world up
// setupRepeats times and reports the end-to-end metrics. The traced run
// attaches the harness's probe for the window, reports the per-layer
// metrics, and then restores the world's snapshot: the replay runs without
// a probe, so one comparison of digests shows both that a snapshot
// round-trips and that tracing did not move the trajectory.
func runLibrary(r *run, w libWorkload) error {
	r.tr.begin("run")
	defer r.tr.end()
	var setups []float64
	for i := 1; i < setupRepeats && !r.traced; i++ {
		_, st, err := r.setupLib(w)
		if err != nil {
			return err
		}
		setups = append(setups, st.total().Seconds())
		runtime.GC() // the discarded world must not count against the next one
	}
	start := time.Now()
	net, st, err := r.setupLib(w)
	if err != nil {
		return err
	}
	setups = append(setups, st.total().Seconds())
	s := &sink{t: r.tr}
	if r.traced {
		net.AttachProbe(s)
	}
	win := r.runWindow(w, net)
	net.DetachProbe()
	r.settle(net)
	played := time.Since(start)
	if r.digest, err = simDigest(net); err != nil {
		return err
	}
	rss, err := peakRSSMB()
	r.op(err)

	r.tr.begin("checks")
	defer r.tr.end()
	verify := r.span("verify", func() { r.op(net.Verify()) })
	ts, tsErr := net.TrafficStats()
	if tsErr == nil {
		r.check(trafficIdentity(ts), "traffic ledger breaks its accounting identity: %+v", ts)
	}
	if !r.traced {
		r.put("setup_s", median(setups), "s")
		r.put("steps_per_s", win.stepsPerSecond(), "1/s")
		r.put("op_p50_ms", median(win.opMs), "ms")
		r.put("peak_rss_mb", rss, "MB")
		return nil
	}

	var (
		clusters []selfstab.Cluster
		stats    selfstab.Stats
	)
	clustersD := r.span("clusters", func() { clusters = net.Clusters() })
	statsD := r.span("stats", func() { stats = net.Stats() })
	r.check(len(clusters) == stats.Clusters, "Clusters lists %d clusters, Stats counts %d", len(clusters), stats.Clusters)
	if w.routing {
		r.routingMetrics(net)
	}
	steps := sum(win.opSteps)
	r.put("runtime.step_us", 1e3*sum(win.opMs)/steps, "us")
	if w.rounds {
		r.put("heal.recover_ms", median(win.opMs), "ms")
		r.put("heal.steps_to_stabilize", mean(win.toStable), "count")
		r.put("heal.rounds", float64(len(win.opMs)), "count")
		r.put("journal.inject_faults_ms", median(win.injectMs), "ms")
	} else {
		r.put("runtime.step_p50_ms", median(win.opMs), "ms")
		r.put("runtime.step_p99_ms", quantile(win.opMs, 0.99), "ms")
	}
	r.put("runtime.frame_us", s.phaseUs(obs.PhaseFrame), "us")
	r.put("runtime.halo_us", s.phaseUs(obs.PhaseHalo), "us")
	r.put("runtime.ingest_us", s.phaseUs(obs.PhaseIngest), "us")
	r.put("runtime.frontier_len", s.perStep(obs.CtrFrontier), "count")
	r.put("runtime.exec_len", s.perStep(obs.CtrExec), "count")
	r.put("runtime.dense_fallbacks", float64(s.counter[obs.CtrDenseFallback]), "count")
	r.put("runtime.halo_crossings", float64(s.counter[obs.CtrHaloCross]), "count")
	r.put("runtime.quiet_step_ratio", float64(s.quiet)/float64(max(s.steps, 1)), "ratio")
	r.put("runtime.allocs_per_step", win.mem.allocs/steps, "count")
	r.put("runtime.bytes_per_step", win.mem.bytes/steps, "B")
	r.put("runtime.gc_cycles", win.mem.gcCycles, "count")
	r.put("runtime.gc_pause_ms", win.mem.gcPauseMs, "ms")
	r.put("runtime.heap_mb", win.mem.heapMB, "MB")

	r.putSetup(st)
	cs := net.ConvergenceStats()
	ops := 0
	for _, d := range cs.Disruptions {
		ops += d.Ops
	}
	r.put("churn.phase_us", s.phaseUs(obs.PhaseChurn), "us")
	r.put("churn.ops", float64(ops), "count")
	r.put("churn.episodes", float64(len(cs.Disruptions)), "count")
	r.put("churn.mean_steps_to_stabilize", cs.MeanStepsToStabilize, "count")
	r.put("churn.mean_affected_nodes", cs.MeanAffectedNodes, "count")
	r.put("churn.mean_affected_radius", cs.MeanAffectedRadius, "count")
	r.put("churn.compactions", float64(s.counter[obs.CtrCompactions]), "count")
	r.put("churn.compact_us", s.phaseUs(obs.PhaseCompact), "us")

	r.put("traffic.phase_us", s.phaseUs(obs.PhaseTraffic), "us")
	r.put("traffic.pkt_hops", float64(s.counter[obs.CtrTrafficForwarded]), "count")
	r.put("traffic.queue_occupancy", s.perStep(obs.CtrQueueOccupancy), "count")
	if tsErr == nil {
		r.put("traffic.offered", float64(ts.Offered), "count")
		r.put("traffic.delivered", float64(ts.Delivered), "count")
		r.put("traffic.delivery_ratio", ts.DeliveryRatio, "ratio")
		r.put("traffic.drops_noroute", float64(ts.DropsNoRoute), "count")
		r.put("traffic.admission_rejects", float64(ts.DropsAdmission+ts.DropsRateLimit), "count")
	}
	r.put("energy.phase_us", s.phaseUs(obs.PhaseEnergy), "us")
	if es, err := net.EnergyStats(); err == nil {
		r.put("energy.depletions", float64(es.Depletions), "count")
		r.put("energy.total_drain", es.TotalDrain, "energy")
	}

	r.put("cluster.verify_ms", ms(verify), "ms")
	r.put("cluster.clusters_ms", ms(clustersD), "ms")
	r.put("cluster.stats_ms", ms(statsD), "ms")
	r.put("cluster.heads", float64(len(clusters)), "count")

	var doc bytes.Buffer
	encode := r.span("snapshot", func() { r.op(net.WriteSnapshot(&doc)) })
	// The replay is this run's untraced twin, decode included. The live
	// world is dropped first so that both ran with one world on the heap.
	net = nil
	runtime.GC()
	r.snapshotMetrics(doc.Bytes(), encode, r.digest)
	if replayed := r.metrics["snapshot.restore_ms"].Value / 1e3; replayed > 0 {
		r.put("obs.overhead_frac", (played.Seconds()-replayed)/replayed, "ratio")
	}
	return nil
}

// putSetup reports the spans of the world's set-up.
func (r *run) putSetup(st setupTimes) {
	r.put("setup.construct_ms", ms(st.construct), "ms")
	r.put("setup.stabilize_ms", ms(st.stabilize), "ms")
	r.put("setup.stabilize_steps", float64(st.stabilizeSteps), "count")
	r.put("setup.attach_ms", ms(st.attach), "ms")
	r.put("setup.warmup_ms", ms(st.warmup), "ms")
}

// snapshotMetrics decodes and restores a snapshot document, reports what
// each stage cost, and checks the restored world against the live digest.
func (r *run) snapshotMetrics(doc []byte, encode time.Duration, live uint64) {
	var (
		parsed   *snapshot.Snapshot
		restored *selfstab.Network
		err      error
	)
	decode := r.span("decode", func() { parsed, err = snapshot.Decode(bytes.NewReader(doc)) })
	r.op(err)
	restore := r.span("restore", func() { restored, err = selfstab.ReadSnapshot(bytes.NewReader(doc)) })
	r.op(err)
	if err != nil {
		return
	}
	rd, err := simDigest(restored)
	r.op(err)
	r.check(rd == live, "restored world digests to %016x, the live one to %016x", rd, live)
	r.put("snapshot.bytes", float64(len(doc)), "B")
	r.put("snapshot.encode_ms", ms(encode), "ms")
	r.put("snapshot.decode_ms", ms(decode), "ms")
	r.put("snapshot.restore_ms", ms(restore), "ms")
	r.put("snapshot.restore_steps_per_s", float64(restored.StepCount())/restore.Seconds(), "1/s")
	r.put("journal.ops", float64(len(parsed.Ops)), "count")
}

// routingMetrics times route queries on the settled world. The first query
// after the last epoch move pays one rebuild of the hierarchical table; the
// rest walk the cached tables.
func (r *run) routingMetrics(net *selfstab.Network) {
	rng := r.rng()
	ids := net.IDs()
	pair := func() (int64, int64) { return ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))] }
	// A pair may sit in different components or name a departed node, which
	// the tables answer with ErrUnreachable. The walk through the tables is
	// what is timed, so that answer is not a failure; any other error is.
	route := func(src, dst int64) {
		_, err := net.Route(src, dst)
		if errors.Is(err, selfstab.ErrUnreachable) {
			err = nil
		}
		r.op(err)
	}
	src, dst := pair()
	cold := r.span("route_cold", func() { route(src, dst) })
	var pairs [16][2]int64
	for i := range pairs {
		pairs[i][0], pairs[i][1] = pair()
	}
	const queries = 1000
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	warm := r.span("route_warm", func() {
		for i := 0; i < queries; i++ {
			route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
		}
	})
	mem := memSince(&before)
	r.put("routing.route_cold_ms", ms(cold), "ms")
	r.put("routing.route_warm_us", float64(warm.Microseconds())/queries, "us")
	r.put("routing.route_warm_allocs", mem.allocs/queries, "count")
}
