package selfstab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"selfstab/internal/obs"
	"selfstab/internal/snapshot"
)

// The determinism contract, as one matrix. A trace is a journal: the
// blueprint a live world was built from plus every op it was driven
// through, each stamped with its step, read back from the world's own
// oplog. The live world is the reference. Every cell of the matrix
// rebuilds the world from the blueprint, replays the journal through
// Network.replay (restore's loop) under its own combination of axes, and
// must reach the live world's fingerprint at the cut and at the end:
//
//   - world option: lossless, WithTau(0.7), WithSlottedRadio(32),
//     WithDaemon(0.6), each recorded as a live world of its own;
//   - workers: 1 and 4;
//   - scan: the engine's own choice, the full scan, or the full scan
//     from the first op up to the cut and the engine's choice after it
//     (switching back must re-activate every node). Only lossless
//     worlds have a choice: the other options always scan, so their
//     scan axis collapses;
//   - probe: none, or a Collector;
//   - cut: none, a WriteSnapshot → ReadSnapshot round trip, or a
//     Compact (not on the slotted and daemon worlds; see worlds).
//
// go test runs the full product; -short runs a pairwise cover of it. A
// new trace source is one more entry of traces, a new axis one more
// field of cell.

// fanOut is runtime.parallelThreshold, pinned there by
// TestRootFanOutIsParallelThreshold: a step that visits this many nodes
// splits its per-node phases over the workers.
const fanOut = 128

// trace is a trace generator: drive runs a live world of 260 nodes
// through the public API, calls cut once, and ends with its schedules
// detached and the world settled.
type trace struct {
	name   string
	seed   int64
	opts   []Option
	phases []obs.Phase // every phase a probe on this trace must see
	drive  func(t *testing.T, net *Network, cut func())
	// check keeps the trace from passing vacuously; it runs once, on the
	// lossless live world.
	check func(t *testing.T, net *Network)
}

// traces are the committed trace generators.
var traces = []trace{
	{
		name:   "mixed",
		seed:   20260808,
		opts:   []Option{WithStickyHeads(), WithFusion()},
		phases: []obs.Phase{obs.PhaseChurn, obs.PhaseFrame, obs.PhaseIngest, obs.PhaseTraffic, obs.PhaseEnergy, obs.PhaseCompact},
		drive:  driveMixed,
		check: func(t *testing.T, net *Network) {
			checkSettled(t, net)
			es, err := net.EnergyStats()
			must(t, err)
			if got := es.DrainHead + es.DrainMember + es.DrainSleep + es.DrainTx + es.DrainRx; math.Abs(got-es.TotalDrain) > 1e-9 {
				t.Errorf("drain identity broken: parts %v, total %v", got, es.TotalDrain)
			}
			if es.SleepSteps == 0 {
				t.Errorf("nobody ever slept: %+v", es)
			}
		},
	},
	{
		name:   "attack",
		seed:   20260810,
		opts:   []Option{WithDAG(0)},
		phases: []obs.Phase{obs.PhaseChurn, obs.PhaseFrame, obs.PhaseIngest, obs.PhaseTraffic},
		drive:  driveAttack,
		check: func(t *testing.T, net *Network) {
			ts := checkSettled(t, net)
			if ts.DropsAdmission+ts.DropsRateLimit == 0 {
				t.Errorf("the defenses never fired: %+v", ts)
			}
		},
	},
}

// driveMixed runs every mutation family the journal carries: the churn
// schedule, traffic, energy with rotation, manual lifecycle calls,
// mobility, fault injection, one call that fails, auto-compaction and
// Compact.
func driveMixed(t *testing.T, net *Network, cut func()) {
	mixedBeforeCut(t, net)
	cut()
	mixedAfterCut(t, net)
}

// mixedBeforeCut is driveMixed up to its cut.
func mixedBeforeCut(t *testing.T, net *Network) {
	must(t, net.AttachChurn(ChurnConfig{
		ArrivalRate: 0.2, DepartureRate: 0.15, CrashRate: 0.15, SleepRate: 0.1, SleepSteps: 6,
	}))
	must(t, net.Run(8))
	ids := firstAliveIDs(t, net, 4)
	must(t, net.AttachTraffic(TrafficConfig{
		QueueCap: 8,
		Flows:    []Flow{CBRFlow(ids[0], ids[1], 0.6), PoissonFlow(ids[1], ids[2], 0.4), HotspotFlow(ids[3], 5, 0.2)},
	}))
	must(t, net.AttachEnergy(EnergyConfig{Rotation: true}))
	must(t, net.Run(8))
	net.InjectFaults(0.25)
	must(t, net.Run(4))
	_, err := net.AddNodes([]Point{{X: 0.31, Y: 0.47}, {X: 0.72, Y: 0.18}})
	must(t, err)
	ids = firstAliveIDs(t, net, 2)
	must(t, net.CrashNodes(ids[0]))
	must(t, net.SleepNodes(ids[1]))
	must(t, net.SetAutoCompact(0.3))
	must(t, net.Run(10))
	must(t, net.WakeNodes(ids[1]))
	pts := net.Positions()
	for i := range pts[:20] {
		pts[i].X = math.Min(pts[i].X+0.02, 1)
	}
	must(t, net.SetPositions(pts))
	// A failed op is not journaled, so it must not advance the master rng
	// stream either: the fault injection after it splits that stream, and
	// a replay would corrupt other nodes than the live world did.
	if err := net.AttachTraffic(TrafficConfig{Flows: []Flow{CBRFlow(987654, ids[1], 1)}}); err == nil {
		t.Fatal("a flow from an unknown id was accepted")
	}
	net.InjectFaults(1)
	must(t, net.Run(4))
}

// mixedAfterCut is driveMixed after its cut: removal, Compact, detaching
// the schedules, and settling.
func mixedAfterCut(t *testing.T, net *Network) {
	must(t, net.Run(5))
	must(t, net.RemoveNodes(firstAliveIDs(t, net, 1)...))
	must(t, net.Run(6))
	_, err := net.Compact()
	must(t, err)
	must(t, net.Run(4))
	net.DetachChurn()
	net.DetachEnergy()
	settle(t, net)
}

// driveAttack runs every adversarial op the journal carries: defense
// installation, a head-targeted flood, byzantine density inflation, a
// sybil burst, then the defense response — eviction of what
// ImplausibleNodes reports — and defense removal.
func driveAttack(t *testing.T, net *Network, cut func()) {
	ids := firstAliveIDs(t, net, 5)
	must(t, net.AttachTraffic(TrafficConfig{
		QueueCap: 8,
		Flows:    []Flow{CBRFlow(ids[0], ids[1], 0.5), PoissonFlow(ids[2], ids[3], 0.3)},
	}))
	must(t, net.Run(6))
	must(t, net.SetTrafficDefense(DefenseConfig{HeadAdmission: true, HeadRate: 0.75, HeadBurst: 3, SourceCap: 2}))
	_, err := net.FloodHeads(6, 3)
	must(t, err)
	net.InjectFaults(1)
	must(t, net.Run(8))
	must(t, net.RemoveNodes(ids[4])) // a dead slot for the compaction cells
	liars := firstAliveIDs(t, net, 2)
	must(t, net.InflateDensity(4, liars...))
	must(t, net.Run(8))
	_, err = net.SybilJoin(liars[0], 5, 0.04)
	must(t, err)
	must(t, net.Run(6))
	cut()
	evict := net.ImplausibleNodes(1.1)
	if len(evict) == 0 {
		t.Fatal("no implausible nodes detected after density inflation")
	}
	must(t, net.EvictNodes(evict...))
	must(t, net.Run(6))
	must(t, net.SetTrafficDefense(DefenseConfig{}))
	must(t, net.Run(4))
	settle(t, net)
}

// checkSettled asserts what every settled trace must show: a traffic
// ledger that balances and carried packets, a convergence ledger that
// closed episodes and has none open, and a legitimate clustering.
func checkSettled(t *testing.T, net *Network) TrafficStats {
	t.Helper()
	ts, err := net.TrafficStats()
	must(t, err)
	checkTrafficLedger(t, ts)
	if ts.Offered == 0 || ts.Delivered == 0 {
		t.Errorf("degenerate traffic: %+v", ts)
	}
	cs := net.ConvergenceStats()
	if len(cs.Disruptions) == 0 || cs.Open {
		t.Errorf("convergence ledger: %d closed episodes, open %v", len(cs.Disruptions), cs.Open)
	}
	if err := net.Verify(); err != nil {
		t.Errorf("settled world is not legitimate: %v", err)
	}
	return ts
}

// settle lets a world converge: Stabilize on a lossless medium, a fixed
// stretch on a lossy one, where TTL eviction of missed frames keeps the
// densities moving forever.
func settle(t *testing.T, net *Network) {
	t.Helper()
	if net.cfg.Tau < 1 || net.cfg.Slots > 0 {
		must(t, net.Run(20))
		return
	}
	_, err := net.Stabilize(3000)
	must(t, err)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// journal is one recorded trace: what a cell replays, and the live
// world's fingerprints it must reach (their Step fields say when).
type journal struct {
	deploy       snapshot.Deployment
	cfg          snapshot.Options
	ops          []snapshot.Op
	cutOp        int // ops[:cutOp] precede the cut
	atCut, atEnd worldFingerprint
}

// widest is the live world's probe. It records the most nodes one step
// visited, so a trace whose worker axis never fans out fails instead of
// passing vacuously.
type widest struct{ max int64 }

func (p *widest) BeginStep(int)        {}
func (p *widest) EndStep(int, bool)    {}
func (p *widest) PhaseBegin(obs.Phase) {}
func (p *widest) PhaseEnd(obs.Phase)   {}
func (p *widest) Counter(c obs.Counter, v int64) {
	if c == obs.CtrExec {
		p.max = max(p.max, v)
	}
}

// record builds a trace's live world with the world option's extra
// options, settles it, drives it, and reads back its journal.
func record(t *testing.T, tr trace, world []Option) (*Network, *journal) {
	t.Helper()
	opts := []Option{WithSeed(tr.seed), WithRange(0.14), WithCacheTTL(4), WithStableWindow(6)}
	net, err := NewRandomNetwork(260, append(append(opts, tr.opts...), world...)...)
	must(t, err)
	wide := new(widest)
	net.AttachProbe(wide)
	settle(t, net)
	j := &journal{deploy: net.deploy, cfg: net.cfg, cutOp: -1}
	tr.drive(t, net, func() {
		j.cutOp, j.atCut = len(net.oplog), fingerprint(t, net)
	})
	if j.cutOp < 0 {
		t.Fatal("the trace never cut")
	}
	j.ops, j.atEnd = net.oplog, fingerprint(t, net)
	if wide.max < fanOut {
		t.Fatalf("no step visited %d nodes (widest %d): the worker axis never fans out", fanOut, wide.max)
	}
	t.Logf("%d ops over %d steps; widest step %d nodes", len(j.ops), j.atEnd.Step, wide.max)
	return net, j
}

type scan uint8

const (
	scanAuto       scan = iota // the engine's choice: the frontier where eligible
	scanFull                   // the full scan throughout
	scanFullToAuto             // the full scan from the first op to the cut, the engine's choice after
)

type cut uint8

const (
	noCut cut = iota
	snapshotCut
	compactCut
)

// worlds is the world-option axis. The slotted medium draws a slot, and
// the randomized daemon an activation, for every index slot each step,
// dead slots included, so a compaction the live world never ran shifts
// their streams: their cut axis has no compaction.
var worlds = []world{
	{"lossless", nil, []cut{noCut, snapshotCut, compactCut}},
	{"tau0.7", []Option{WithTau(0.7)}, []cut{noCut, snapshotCut, compactCut}},
	{"slotted32", []Option{WithSlottedRadio(32)}, []cut{noCut, snapshotCut}},
	{"daemon0.6", []Option{WithDaemon(0.6)}, []cut{noCut, snapshotCut}},
}

type world struct {
	name string
	opts []Option
	cuts []cut
}

// cell is one combination of axes.
type cell struct {
	workers int
	scan    scan
	probe   bool
	cut     cut
}

func (c cell) String() string {
	return fmt.Sprintf("w%d/%s/%s/%s", c.workers,
		[...]string{"auto", "full", "full-to-auto"}[c.scan],
		map[bool]string{false: "bare", true: "probe"}[c.probe],
		[...]string{"nocut", "snapshot", "compact"}[c.cut])
}

// cells returns the full product of the axes, or under -short a
// pairwise cover of it: the nine rows (a, b, a+b, a+2b) mod 3 of the L9
// orthogonal array hold every pair of levels in any two columns, and
// mapping a column's levels onto an axis's values (level mod the axis's
// size) keeps every pair of values.
func cells(scans []scan, cuts []cut, short bool) []cell {
	var out []cell
	if short {
		for a := range 3 {
			for b := range 3 {
				c := cell{[]int{1, 4}[(a+b)%3%2], scans[a%len(scans)], (a+2*b)%3%2 == 1, cuts[b%len(cuts)]}
				if !slices.Contains(out, c) {
					out = append(out, c)
				}
			}
		}
		return out
	}
	for _, w := range []int{1, 4} {
		for _, s := range scans {
			for _, p := range []bool{false, true} {
				for _, c := range cuts {
					out = append(out, cell{w, s, p, c})
				}
			}
		}
	}
	return out
}

// runCell replays j under c and requires the live world's fingerprint at
// the cut and at the end.
func runCell(t *testing.T, j *journal, c cell, phases []obs.Phase) {
	net, err := construct(j.deploy, j.cfg)
	must(t, err)
	var col *obs.Collector
	if c.probe {
		col = NewCollector(0)
	}
	configure := func(net *Network, full bool) {
		net.SetParallelism(c.workers)
		if col != nil {
			net.AttachProbe(col)
		}
		if full {
			must(t, net.engine.SetSparse(false))
		}
	}
	configure(net, c.scan == scanFull)
	if c.scan == scanFullToAuto {
		// The settle after construction drained the worklist, and the
		// full scan keeps none: switching back at the cut must
		// re-activate every node itself.
		must(t, net.replay(nil, j.ops[0].Step))
		must(t, net.engine.SetSparse(false))
	}
	must(t, net.replay(j.ops[:j.cutOp], j.atCut.Step))
	requireSameWorld(t, "at the cut", j.atCut, fingerprint(t, net))
	switch c.cut {
	case snapshotCut:
		doc := snapshotBytes(t, net)
		if !bytes.Equal(doc, snapshotBytes(t, net)) {
			t.Fatal("two WriteSnapshot calls on an unchanged world differ")
		}
		restored, err := ReadSnapshot(bytes.NewReader(doc))
		must(t, err)
		// The restored world re-journaled the replay, so its own
		// checkpoint must equal the original's byte for byte.
		if !bytes.Equal(doc, snapshotBytes(t, restored)) {
			t.Fatal("the restored world's snapshot differs from the original's")
		}
		net = restored
		configure(net, c.scan == scanFull)
		requireSameWorld(t, "restored at the cut", j.atCut, fingerprint(t, net))
	case compactCut:
		// A compaction the live world never ran renumbers the slots.
		// set_positions addresses nodes by index, and inject_faults draws
		// its corruption per index slot, dead slots included, so neither
		// replays the same after it.
		if k := slices.IndexFunc(j.ops[j.cutOp:], func(op snapshot.Op) bool {
			return op.Kind == snapshot.OpSetPositions || op.Kind == snapshot.OpFaults
		}); k >= 0 {
			t.Fatalf("op %d after the cut is %s: a compaction cell cannot replay it", j.cutOp+k, j.ops[j.cutOp+k].Kind)
		}
		if removed, err := net.Compact(); err != nil || removed == 0 {
			t.Fatalf("compaction at the cut reclaimed %d slots (err %v): the cell checks nothing", removed, err)
		}
		requireSameWorld(t, "compacted at the cut", j.atCut.compacted(), fingerprint(t, net))
	}
	if c.scan == scanFullToAuto {
		must(t, net.engine.SetSparse(true))
	}
	must(t, net.replay(j.ops[j.cutOp:], j.atEnd.Step))
	want, got := j.atEnd, fingerprint(t, net)
	if c.cut == compactCut {
		// Auto-compaction fires on a dead fraction, which the extra
		// compaction shifted: only the dead slots may differ.
		want, got = want.compacted(), got.compacted()
	}
	requireSameWorld(t, "at the end", want, got)
	if col != nil {
		m := col.Metrics()
		for _, p := range phases {
			if m.Phases[p].Count == 0 {
				t.Errorf("the collector never saw phase %v", p)
			}
		}
		if m.Counters[obs.CtrTrafficForwarded] == 0 {
			t.Error("the collector counted no forwarded packets")
		}
	}
}

// TestDeterminismMatrix is the determinism contract: for every trace and
// world option, every cell of the matrix reproduces the live world bit
// for bit, and the live world's fingerprint matches the digest pinned in
// testdata/digests.json.
func TestDeterminismMatrix(t *testing.T) {
	var mu sync.Mutex
	digests := map[string]string{}
	t.Run("traces", func(t *testing.T) {
		for _, tr := range traces {
			for _, w := range worlds {
				t.Run(tr.name+"/"+w.name, func(t *testing.T) {
					t.Parallel()
					live, j := record(t, tr, w.opts)
					scans := []scan{scanAuto, scanFull, scanFullToAuto}
					if w.opts != nil {
						if live.SparseStepping() {
							t.Fatal("a lossy or randomized world steps the frontier")
						}
						scans = scans[:1]
					} else {
						if !live.SparseStepping() {
							t.Fatal("a lossless synchronous world does not step the frontier")
						}
						tr.check(t, live)
					}
					mu.Lock()
					digests[tr.name+"/"+w.name] = j.atEnd.digest(t)
					mu.Unlock()
					for _, c := range cells(scans, w.cuts, testing.Short()) {
						t.Run(c.String(), func(t *testing.T) {
							t.Parallel()
							runCell(t, j, c, tr.phases)
						})
					}
				})
			}
		}
	})
	t.Run("digests", func(t *testing.T) {
		if a := goruntime.GOARCH; a != "amd64" && a != "386" {
			t.Skipf("digests are checked on amd64 and 386, where CI runs the matrix; on %s no run has compared them yet", a)
		}
		checkDigests(t, digests)
	})
}

// checkDigests compares the live fingerprints' digests with the pinned
// ones, or rewrites the pinned file under SELFSTAB_UPDATE_GOLDEN=1. A
// deliberate trajectory change is then a reviewed one-line diff.
func checkDigests(t *testing.T, got map[string]string) {
	path := filepath.Join("testdata", "digests.json")
	pinned := map[string]string{}
	raw, err := os.ReadFile(path)
	if err == nil {
		must(t, json.Unmarshal(raw, &pinned))
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if os.Getenv("SELFSTAB_UPDATE_GOLDEN") != "" {
		maps.Copy(pinned, got)
		raw, err := json.MarshalIndent(pinned, "", "  ")
		must(t, err)
		must(t, os.MkdirAll("testdata", 0o755))
		must(t, os.WriteFile(path, append(raw, '\n'), 0o644))
		return
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if pinned[k] != got[k] {
			t.Errorf("%s: live fingerprint digest %s, pinned %q: the trajectory changed (regenerate with SELFSTAB_UPDATE_GOLDEN=1 go test -run TestDeterminismMatrix . and review the diff)", k, got[k], pinned[k])
		}
	}
}

// worldFingerprint is everything a caller can observe of a world: the
// step count and the last step that changed shared state (Stabilize's
// answer derives from it), the population, every slot's node in index
// order with its protocol state, position and battery, the clustering
// and its statistics, and all three ledgers. Two worlds with equal
// fingerprints are indistinguishable to any caller. Per-node fields are
// keyed by id, so that compacted, which drops the dead slots, lets a
// world that compacted compare with one that did not.
type worldFingerprint struct {
	Step        int
	LastChange  int
	Alive       int
	Sleeping    int
	Dead        int
	IDs         []int64 // every slot's node, in index order, dead slots included
	States      map[int64]NodeState
	Battery     map[int64]float64 // EnergyRemaining, once energy was attached
	Clusters    []Cluster
	Stats       Stats
	Convergence ConvergenceStats
	Traffic     *TrafficStats
	Energy      *EnergyStats
}

func fingerprint(t *testing.T, n *Network) worldFingerprint {
	t.Helper()
	fp := worldFingerprint{
		Step:        n.StepCount(),
		LastChange:  n.engine.LastChange(),
		States:      map[int64]NodeState{},
		Clusters:    n.Clusters(),
		Stats:       n.Stats(),
		Convergence: n.ConvergenceStats(),
	}
	fp.Alive, fp.Sleeping, fp.Dead = n.Population()
	battery, err := n.EnergyRemaining()
	if err == nil {
		fp.Battery = map[int64]float64{}
	}
	for i := 0; i < n.N(); i++ {
		st, err := n.State(i)
		must(t, err)
		if _, dup := fp.States[st.ID]; dup {
			t.Fatalf("id %d holds two slots", st.ID)
		}
		fp.IDs = append(fp.IDs, st.ID)
		fp.States[st.ID] = st
		if fp.Battery != nil {
			fp.Battery[st.ID] = battery[i]
		}
	}
	if ts, err := n.TrafficStats(); err == nil {
		fp.Traffic = &ts
	}
	if es, err := n.EnergyStats(); err == nil {
		fp.Energy = &es
	}
	return fp
}

// compacted is fp as Compact would leave it, with the dead slots gone.
// Only a comparison across a compaction that one side never ran needs
// it.
func (fp worldFingerprint) compacted() worldFingerprint {
	out := fp
	out.Dead, out.IDs, out.States = 0, nil, map[int64]NodeState{}
	if fp.Battery != nil {
		out.Battery = map[int64]float64{}
	}
	for _, id := range fp.IDs {
		if fp.States[id].Status == NodeDead {
			continue
		}
		out.IDs = append(out.IDs, id)
		out.States[id] = fp.States[id]
		if out.Battery != nil {
			out.Battery[id] = fp.Battery[id]
		}
	}
	return out
}

// digest is the FNV-64a of the fingerprint's JSON encoding, which sorts
// map keys and writes floats in their shortest exact form.
func (fp worldFingerprint) digest(t *testing.T) string {
	raw, err := json.Marshal(fp)
	must(t, err)
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64())
}

// requireSameWorld fails at the first field where got departs from want,
// named by its path, such as "States[id 17].HeadID: 4 vs 9".
func requireSameWorld(t *testing.T, label string, want, got worldFingerprint) {
	t.Helper()
	if d := firstDiff("", reflect.ValueOf(want), reflect.ValueOf(got)); d != "" {
		t.Fatalf("%s: worlds diverged at %s", label, d)
	}
}

// firstDiff walks a and b in step and describes the first place they
// differ, or returns "" when they are equal bit for bit.
func firstDiff(path string, a, b reflect.Value) string {
	differ := func(x, y any) string { return fmt.Sprintf("%s: %v vs %v", path, x, y) }
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return differ(a.IsNil(), b.IsNil()) + " (nil)"
			}
			return ""
		}
		return firstDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			name := a.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if d := firstDiff(name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range min(a.Len(), b.Len()) {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
	case reflect.Map: // keyed by node id
		keys := append(a.MapKeys(), b.MapKeys()...)
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		for _, k := range keys {
			at := fmt.Sprintf("%s[id %d]", path, k.Int())
			av, bv := a.MapIndex(k), b.MapIndex(k)
			if !av.IsValid() || !bv.IsValid() {
				return fmt.Sprintf("%s: present %v vs %v", at, av.IsValid(), bv.IsValid())
			}
			if d := firstDiff(at, av, bv); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return differ(a.Float(), b.Float())
		}
	default: // integers, booleans
		if a.Interface() != b.Interface() {
			return differ(a.Interface(), b.Interface())
		}
	}
	return ""
}

// firstAliveIDs returns the first k alive node ids in index order — a
// deterministic victim pick.
func firstAliveIDs(t *testing.T, n *Network, k int) []int64 {
	t.Helper()
	var out []int64
	for i := 0; i < n.N() && len(out) < k; i++ {
		st, err := n.State(i)
		must(t, err)
		if st.Status == NodeAlive {
			out = append(out, st.ID)
		}
	}
	if len(out) < k {
		t.Fatalf("only %d alive nodes, need %d", len(out), k)
	}
	return out
}
