package selfstab

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"selfstab/internal/snapshot"
)

// worldFingerprint collects everything observable about a world that the
// snapshot contract promises to preserve: step count, population, every
// node's protocol state, the clustering, and all three ledgers. Two
// worlds with equal fingerprints are indistinguishable to any caller.
type worldFingerprint struct {
	StepCount   int
	N           int
	IDs         []int64
	Positions   []Point
	States      []NodeState
	Clusters    []Cluster
	Alive       int
	Sleeping    int
	Dead        int
	Convergence ConvergenceStats
	Traffic     *TrafficStats
	Energy      *EnergyStats
}

func fingerprint(t *testing.T, n *Network) worldFingerprint {
	t.Helper()
	fp := worldFingerprint{
		StepCount: n.StepCount(),
		N:         n.N(),
		IDs:       n.IDs(),
		Positions: n.Positions(),
		Clusters:  n.Clusters(),
	}
	fp.Alive, fp.Sleeping, fp.Dead = n.Population()
	fp.States = make([]NodeState, n.N())
	for i := range fp.States {
		st, err := n.State(i)
		if err != nil {
			t.Fatal(err)
		}
		fp.States[i] = st
	}
	fp.Convergence = n.ConvergenceStats()
	if ts, err := n.TrafficStats(); err == nil {
		fp.Traffic = &ts
	}
	if es, err := n.EnergyStats(); err == nil {
		fp.Energy = &es
	}
	return fp
}

func requireSameWorld(t *testing.T, label string, a, b worldFingerprint) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: worlds diverged\noriginal: %+v\nrestored: %+v", label, a, b)
	}
}

// firstAliveIDs returns the first k alive node ids in index order — a
// deterministic victim pick both worlds agree on.
func firstAliveIDs(t *testing.T, n *Network, k int) []int64 {
	t.Helper()
	var out []int64
	for i := 0; i < n.N() && len(out) < k; i++ {
		st, err := n.State(i)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == NodeAlive {
			out = append(out, st.ID)
		}
	}
	if len(out) < k {
		t.Fatalf("only %d alive nodes, need %d", len(out), k)
	}
	return out
}

// runMixedTrace drives a world through every mutation family the journal
// carries: churn schedule, traffic, energy with rotation, manual
// lifecycle calls, fault injection, mobility-free growth, and the
// compaction knobs. Deterministic for a fixed seed by the repo's
// determinism contract, so the same trace on a restored world must
// reproduce it exactly.
func runMixedTrace(t *testing.T, net *Network) {
	t.Helper()
	if err := net.AttachChurn(ChurnConfig{
		ArrivalRate:   0.2,
		DepartureRate: 0.15,
		CrashRate:     0.15,
		SleepRate:     0.1,
		SleepSteps:    6,
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(8); err != nil {
		t.Fatal(err)
	}
	ids := firstAliveIDs(t, net, 4)
	if err := net.AttachTraffic(TrafficConfig{
		QueueCap: 8,
		Flows: []Flow{
			CBRFlow(ids[0], ids[1], 0.6),
			PoissonFlow(ids[1], ids[2], 0.4),
			HotspotFlow(ids[3], 5, 0.2),
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachEnergy(EnergyConfig{Rotation: true}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(8); err != nil {
		t.Fatal(err)
	}
	net.InjectFaults(0.25)
	if err := net.Run(4); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNodes([]Point{{X: 0.31, Y: 0.47}, {X: 0.72, Y: 0.18}}); err != nil {
		t.Fatal(err)
	}
	ids = firstAliveIDs(t, net, 3)
	if err := net.CrashNodes(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := net.SleepNodes(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := net.SetAutoCompact(0.3); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := net.WakeNodes(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(4); err != nil {
		t.Fatal(err)
	}
}

// continueTrace applies identical post-snapshot mutations to one world.
// The victim ids are passed in (computed once from the original) so both
// worlds receive byte-identical calls.
func continueTrace(t *testing.T, net *Network, victims []int64) {
	t.Helper()
	if err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := net.RemoveNodes(victims[0]); err != nil {
		t.Fatal(err)
	}
	net.InjectFaults(0.2)
	if err := net.Run(6); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Compact(); err != nil {
		t.Fatal(err)
	}
	net.DetachChurn()
	if err := net.Run(4); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReplayOracle is the acceptance contract of the snapshot
// subsystem: snapshot a world mid-run through a mixed churn + traffic +
// energy + lifecycle trace, restore it, and (a) the restored world is
// bit-identical to the original at the snapshot step, (b) continuing
// BOTH worlds with the same op sequence keeps them bit-identical —
// protocol state, clustering, and all three ledgers — and (c) the
// restored world's own next snapshot is byte-identical to the
// original's, so checkpoints chain. Exercised at 1 and 4 workers
// (results must also be identical across those variants per the repo's
// determinism contract, which restore leans on), and on a document that
// carries the retired "tiles" option: a snapshot written by an older
// build must restore to the same world and chain with the field intact.
func TestSnapshotReplayOracle(t *testing.T) {
	variants := []struct {
		name     string
		workers  int
		docTiles int // written into the document before it is restored
	}{
		{"1worker", 1, 0},
		{"4workers", 4, 0},
		{"retired_tiles_field", 1, 4},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			net := churnNet(t, 80, 20260808)
			net.SetParallelism(v.workers)
			runMixedTrace(t, net)

			var snap bytes.Buffer
			if err := net.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			// WriteSnapshot is deterministic and read-only: a second write
			// must produce the same bytes.
			var again bytes.Buffer
			if err := net.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), again.Bytes()) {
				t.Fatal("two WriteSnapshot calls on an unchanged world differ")
			}

			if v.docTiles != 0 {
				doc, err := snapshot.Decode(bytes.NewReader(snap.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				doc.Blueprint.Options.Tiles = v.docTiles
				snap.Reset()
				if err := doc.Encode(&snap); err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(snap.Bytes(), again.Bytes()) {
					t.Fatal("the document does not carry the retired field")
				}
			}

			restored, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			restored.SetParallelism(v.workers)
			requireSameWorld(t, "at snapshot step",
				fingerprint(t, net), fingerprint(t, restored))

			// The restored world re-journaled the replay, so its own
			// checkpoint must equal the original's byte for byte.
			var resnap bytes.Buffer
			if err := restored.WriteSnapshot(&resnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), resnap.Bytes()) {
				t.Fatalf("restored world's snapshot differs from the original's:\noriginal:\n%s\nrestored:\n%s",
					snap.String(), resnap.String())
			}

			victims := firstAliveIDs(t, net, 2)
			continueTrace(t, net, victims)
			continueTrace(t, restored, victims)
			requireSameWorld(t, "after continuing both worlds",
				fingerprint(t, net), fingerprint(t, restored))
		})
	}
}

// TestSnapshotRoundTripEveryConstructor pins that each deployment kind's
// blueprint restores through the same construction path: a fresh
// snapshot of an unstepped world restores to the same positions, ids and
// states.
func TestSnapshotRoundTripEveryConstructor(t *testing.T) {
	builds := []struct {
		name  string
		build func() (*Network, error)
	}{
		{"explicit", func() (*Network, error) {
			return NewNetwork([]Point{{X: 0.2, Y: 0.2}, {X: 0.25, Y: 0.22}, {X: 0.8, Y: 0.8}}, WithSeed(5))
		}},
		{"random", func() (*Network, error) {
			return NewRandomNetwork(40, WithSeed(5), WithDAG(1<<16))
		}},
		{"poisson", func() (*Network, error) {
			return NewPoissonNetwork(60, WithSeed(5), WithStickyHeads())
		}},
		{"hotspot", func() (*Network, error) {
			return NewHotspotNetwork(40, 3, 0.05, WithSeed(5))
		}},
		{"grid", func() (*Network, error) {
			return NewGridNetwork(6, 6, WithSeed(5), WithRowMajorIDs())
		}},
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			net, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Run(12); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := net.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			requireSameWorld(t, b.name, fingerprint(t, net), fingerprint(t, restored))
		})
	}
}

// TestSnapshotRejectsGarbage: the public entry point surfaces the format
// layer's validation.
func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	net, err := NewRandomNetwork(10, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), `"version": 2`, `"version": 7`, 1)
	if _, err := ReadSnapshot(strings.NewReader(tampered)); err == nil {
		t.Fatal("version-tampered snapshot accepted")
	} else if !strings.Contains(err.Error(), "version 7") {
		t.Fatalf("error %q does not name the offending version", err)
	}
}

// snapshotBytes is the world's checkpoint document.
func snapshotBytes(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailedOpsAreNotJournaled: an op that errors mutates nothing — no
// node, no ledger, and not the master rng stream either — and leaves no
// journal entry, so a snapshot taken after a failed call replays to the
// same world. One row (or more) per op kind that has a failing input;
// inject_faults, compact and the three detach ops accept every input.
// The fault injection after the failure is what exposes a stream the
// failed call advanced: its corruption draw comes from a Split of the
// master stream, so the live world and its replay corrupt different
// nodes unless the failure left the stream where it was.
func TestFailedOpsAreNotJournaled(t *testing.T) {
	const ghost = 123456 // an id no world here ever hands out
	withTraffic := func(t *testing.T, n *Network) {
		ids := firstAliveIDs(t, n, 2)
		if err := n.AttachTraffic(TrafficConfig{Flows: []Flow{CBRFlow(ids[0], ids[1], 0.5)}}); err != nil {
			t.Fatal(err)
		}
	}
	// first returns the first alive id; removed and asleep put it in the
	// status the row needs before the failing call.
	first := func(t *testing.T, n *Network) int64 { return firstAliveIDs(t, n, 1)[0] }
	removed := func(t *testing.T, n *Network) {
		if err := n.RemoveNodes(first(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	asleep := func(t *testing.T, n *Network) {
		if err := n.SleepNodes(first(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	firstDead := func(n *Network) int64 {
		for i := 0; i < n.N(); i++ {
			if st, _ := n.State(i); st.Status == NodeDead {
				return st.ID
			}
		}
		return ghost
	}
	rows := []struct {
		kind  string // the op kind the failing call would have journaled
		name  string
		opts  []Option
		setup func(*testing.T, *Network)
		fail  func(*testing.T, *Network) error
	}{
		{"set_positions", "wrong length", nil, nil, func(t *testing.T, n *Network) error {
			return n.SetPositions([]Point{{X: 0.5, Y: 0.5}})
		}},
		{"set_positions", "out of region", nil, nil, func(t *testing.T, n *Network) error {
			pts := n.Positions()
			pts[len(pts)-1] = Point{X: 2, Y: 2}
			return n.SetPositions(pts)
		}},
		{"add_nodes", "out of region", nil, nil, func(t *testing.T, n *Network) error {
			_, err := n.AddNodes([]Point{{X: 0.5, Y: 0.5}, {X: 2, Y: 2}})
			return err
		}},
		{"add_nodes", "no positions", nil, nil, func(t *testing.T, n *Network) error {
			_, err := n.AddNodes(nil)
			return err
		}},
		{"remove_nodes", "unknown id", nil, nil, func(t *testing.T, n *Network) error {
			return n.RemoveNodes(ghost)
		}},
		{"remove_nodes", "duplicate id", nil, nil, func(t *testing.T, n *Network) error {
			id := first(t, n)
			return n.RemoveNodes(id, id)
		}},
		{"remove_nodes", "dead id", nil, removed, func(t *testing.T, n *Network) error {
			return n.RemoveNodes(firstDead(n))
		}},
		{"crash_nodes", "second id unknown", nil, nil, func(t *testing.T, n *Network) error {
			// The whole call must fail before the first node mutates.
			return n.CrashNodes(first(t, n), ghost)
		}},
		{"crash_nodes", "dead id", nil, removed, func(t *testing.T, n *Network) error {
			return n.CrashNodes(firstDead(n))
		}},
		{"sleep_nodes", "already asleep", nil, asleep, func(t *testing.T, n *Network) error {
			for i := 0; i < n.N(); i++ {
				if st, _ := n.State(i); st.Status == NodeSleeping {
					return n.SleepNodes(st.ID)
				}
			}
			t.Fatal("setup left no sleeper")
			return nil
		}},
		{"sleep_nodes", "no ids", nil, nil, func(t *testing.T, n *Network) error {
			return n.SleepNodes()
		}},
		{"wake_nodes", "alive id", nil, nil, func(t *testing.T, n *Network) error {
			return n.WakeNodes(first(t, n))
		}},
		{"attach_traffic", "unknown destination", nil, nil, func(t *testing.T, n *Network) error {
			return n.AttachTraffic(TrafficConfig{Flows: []Flow{CBRFlow(first(t, n), ghost, 1)}})
		}},
		{"attach_traffic", "negative queue capacity", nil, nil, func(t *testing.T, n *Network) error {
			ids := firstAliveIDs(t, n, 2)
			return n.AttachTraffic(TrafficConfig{QueueCap: -1, Flows: []Flow{CBRFlow(ids[0], ids[1], 1)}})
		}},
		{"attach_traffic", "hotspot larger than the world", nil, nil, func(t *testing.T, n *Network) error {
			return n.AttachTraffic(TrafficConfig{Flows: []Flow{HotspotFlow(first(t, n), n.N(), 0.1)}})
		}},
		{"attach_traffic", "zero rate", nil, nil, func(t *testing.T, n *Network) error {
			ids := firstAliveIDs(t, n, 2)
			return n.AttachTraffic(TrafficConfig{Flows: []Flow{PoissonFlow(ids[0], ids[1], 0)}})
		}},
		{"attach_traffic", "no flows", nil, nil, func(t *testing.T, n *Network) error {
			return n.AttachTraffic(TrafficConfig{})
		}},
		{"attach_churn", "all rates zero", nil, nil, func(t *testing.T, n *Network) error {
			return n.AttachChurn(ChurnConfig{SleepSteps: 5})
		}},
		{"attach_churn", "no cache ttl", []Option{WithCacheTTL(0)}, nil, func(t *testing.T, n *Network) error {
			return n.AttachChurn(ChurnConfig{CrashRate: 0.1})
		}},
		{"attach_energy", "no cache ttl", []Option{WithCacheTTL(0)}, nil, func(t *testing.T, n *Network) error {
			return n.AttachEnergy(EnergyConfig{})
		}},
		{"attach_energy", "negative capacity", nil, nil, func(t *testing.T, n *Network) error {
			return n.AttachEnergy(EnergyConfig{Capacity: -1})
		}},
		{"set_auto_compact", "fraction above one", nil, nil, func(t *testing.T, n *Network) error {
			return n.SetAutoCompact(1.5)
		}},
		{"spawn_flows", "no traffic attached", nil, nil, func(t *testing.T, n *Network) error {
			ids := firstAliveIDs(t, n, 2)
			return n.SpawnFlows(CBRFlow(ids[0], ids[1], 1))
		}},
		{"spawn_flows", "unknown source", nil, withTraffic, func(t *testing.T, n *Network) error {
			return n.SpawnFlows(CBRFlow(ghost, first(t, n), 1))
		}},
		{"spawn_flows", "hotspot larger than the world", nil, withTraffic, func(t *testing.T, n *Network) error {
			return n.SpawnFlows(HotspotFlow(first(t, n), n.N(), 0.1))
		}},
		{"spawn_flows", "stop before start", nil, withTraffic, func(t *testing.T, n *Network) error {
			ids := firstAliveIDs(t, n, 2)
			f := CBRFlow(ids[0], ids[1], 1)
			f.Start, f.Stop = 9, 3
			return n.SpawnFlows(f)
		}},
		{"scale_density", "scale not positive", nil, nil, func(t *testing.T, n *Network) error {
			return n.InflateDensity(0, first(t, n))
		}},
		{"scale_density", "unknown id", nil, nil, func(t *testing.T, n *Network) error {
			return n.InflateDensity(3, first(t, n), ghost)
		}},
		{"evict_nodes", "dead id", nil, removed, func(t *testing.T, n *Network) error {
			return n.EvictNodes(firstDead(n))
		}},
		{"evict_nodes", "duplicate id", nil, nil, func(t *testing.T, n *Network) error {
			id := first(t, n)
			return n.EvictNodes(id, id)
		}},
		{"set_defense", "no traffic attached", nil, nil, func(t *testing.T, n *Network) error {
			return n.SetTrafficDefense(DefenseConfig{SourceCap: 2})
		}},
		{"set_defense", "admission without a rate", nil, withTraffic, func(t *testing.T, n *Network) error {
			return n.SetTrafficDefense(DefenseConfig{HeadAdmission: true})
		}},
	}
	for _, r := range rows {
		r := r
		t.Run(r.kind+"/"+strings.ReplaceAll(r.name, " ", "_"), func(t *testing.T) {
			t.Parallel()
			net := churnNet(t, 30, 99, r.opts...)
			if r.setup != nil {
				r.setup(t, net)
			}
			before, journaled := fingerprint(t, net), len(net.oplog)
			if err := r.fail(t, net); err == nil {
				t.Fatal("accepted")
			}
			if len(net.oplog) != journaled {
				t.Fatalf("failed op was journaled: %+v", net.oplog[journaled:])
			}
			requireSameWorld(t, "after the failed op", before, fingerprint(t, net))
			net.InjectFaults(0.5)
			restored, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, net)))
			if err != nil {
				t.Fatal(err)
			}
			requireSameWorld(t, "restored after the failed op", fingerprint(t, net), fingerprint(t, restored))
		})
	}
}

// TestJournalOwnsItsMemory: the blueprint and the journal keep their own
// copies of every slice a caller hands in, so editing those slices after
// the call returns cannot rewrite the checkpoint — and neither can the
// world's own in-place edits of its id array under Compact.
func TestJournalOwnsItsMemory(t *testing.T) {
	positions := []Point{{X: 0.2, Y: 0.2}, {X: 0.25, Y: 0.22}, {X: 0.3, Y: 0.2}, {X: 0.8, Y: 0.8}}
	custom := []int64{40, 30, 20, 10}
	net, err := NewNetwork(positions, WithSeed(5), WithIDs(custom), WithCacheTTL(4))
	if err != nil {
		t.Fatal(err)
	}
	added := []Point{{X: 0.31, Y: 0.47}, {X: 0.72, Y: 0.18}}
	if _, err := net.AddNodes(added); err != nil {
		t.Fatal(err)
	}
	moved := net.Positions()
	moved[0].X += 0.01
	if err := net.SetPositions(moved); err != nil {
		t.Fatal(err)
	}
	victims := []int64{30}
	if err := net.CrashNodes(victims...); err != nil {
		t.Fatal(err)
	}
	flows := []Flow{CBRFlow(40, 20, 0.5), HotspotFlow(10, 2, 0.1)}
	if err := net.AttachTraffic(TrafficConfig{Flows: flows}); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, net)

	positions[0], added[1], moved[2] = Point{X: 0.9, Y: 0.9}, Point{}, Point{X: 0.5, Y: 0.5}
	custom[0], victims[0] = 77, 20
	flows[0], flows[1].HotspotSources = PoissonFlow(10, 20, 3), 3
	if got := snapshotBytes(t, net); !bytes.Equal(want, got) {
		t.Fatalf("editing the callers' slices rewrote the checkpoint:\nbefore:\n%s\nafter:\n%s", want, got)
	}

	// Compact shifts the survivors down the world's id array in place;
	// the blueprint's WithIDs list must not be that array.
	net, err = NewRandomNetwork(6, WithSeed(5), WithIDs([]int64{60, 50, 40, 30, 20, 10}), WithCacheTTL(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RemoveNodes(60); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Compact(); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, net)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameWorld(t, "restored after compaction", fingerprint(t, net), fingerprint(t, restored))
}
