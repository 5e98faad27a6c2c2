package selfstab

import (
	"bytes"
	"strings"
	"testing"

	"selfstab/internal/snapshot"
)

// TestSnapshotReplayOracle is the acceptance contract of the snapshot
// subsystem as a live twin: snapshot a world in the middle of the mixed
// trace, restore it, and (a) the restored world is bit-identical to the
// original at the snapshot step, (b) its own snapshot is byte-identical,
// so checkpoints chain, and (c) continuing BOTH worlds through the rest of
// the trace keeps them bit-identical. The continuation opens with a fault
// injection, which draws from the master rng stream: a restore that left
// that stream anywhere but where the original's stands corrupts other
// nodes. The determinism matrix cannot ask this: its compaction cells
// refuse fault injection after the cut, so its traces keep every
// injection before it.
func TestSnapshotReplayOracle(t *testing.T) {
	for _, v := range []struct {
		name    string
		workers int
	}{{"1worker", 1}, {"4workers", 4}} {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			net := churnNet(t, 260, 20260808)
			net.SetParallelism(v.workers)
			mixedBeforeCut(t, net)

			snap := snapshotBytes(t, net)
			if !bytes.Equal(snap, snapshotBytes(t, net)) {
				t.Fatal("two WriteSnapshot calls on an unchanged world differ")
			}
			restored, err := ReadSnapshot(bytes.NewReader(snap))
			must(t, err)
			restored.SetParallelism(v.workers)
			requireSameWorld(t, "at snapshot step", fingerprint(t, net), fingerprint(t, restored))
			if !bytes.Equal(snap, snapshotBytes(t, restored)) {
				t.Fatalf("restored world's snapshot differs from the original's:\n%s", snap)
			}

			for _, w := range []*Network{net, restored} {
				w.InjectFaults(0.2)
				mixedAfterCut(t, w)
			}
			requireSameWorld(t, "after continuing both worlds", fingerprint(t, net), fingerprint(t, restored))
		})
	}
}

// TestSnapshotRoundTripEveryConstructor pins that each deployment kind's
// blueprint restores through the same construction path: a snapshot of a
// briefly stepped world restores to the same world, and the restored
// world's own snapshot is the same document, so checkpoints chain. The
// retired_tiles row is format compatibility: a v2 document written by an
// older build carries the retired "tiles" option, and it must restore
// to the same world and chain with the field intact.
func TestSnapshotRoundTripEveryConstructor(t *testing.T) {
	builds := []struct {
		name  string
		build func() (*Network, error)
		tiles int // written into the document before it is restored
	}{
		{"explicit", func() (*Network, error) {
			return NewNetwork([]Point{{X: 0.2, Y: 0.2}, {X: 0.25, Y: 0.22}, {X: 0.8, Y: 0.8}}, WithSeed(5))
		}, 0},
		{"random", func() (*Network, error) {
			return NewRandomNetwork(40, WithSeed(5), WithDAG(1<<16))
		}, 0},
		{"poisson", func() (*Network, error) {
			return NewPoissonNetwork(60, WithSeed(5), WithStickyHeads())
		}, 0},
		{"hotspot", func() (*Network, error) {
			return NewHotspotNetwork(40, 3, 0.05, WithSeed(5))
		}, 0},
		{"grid", func() (*Network, error) {
			return NewGridNetwork(6, 6, WithSeed(5), WithRowMajorIDs())
		}, 0},
		{"retired_tiles", func() (*Network, error) {
			return NewRandomNetwork(40, WithSeed(5), WithCacheTTL(4))
		}, 4},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			net, err := b.build()
			must(t, err)
			must(t, net.Run(12))
			doc := snapshotBytes(t, net)
			if b.tiles != 0 {
				d, err := snapshot.Decode(bytes.NewReader(doc))
				must(t, err)
				d.Blueprint.Options.Tiles = b.tiles
				var buf bytes.Buffer
				must(t, d.Encode(&buf))
				if bytes.Equal(buf.Bytes(), doc) {
					t.Fatal("the document does not carry the retired field")
				}
				doc = buf.Bytes()
			}
			restored, err := ReadSnapshot(bytes.NewReader(doc))
			must(t, err)
			requireSameWorld(t, b.name, fingerprint(t, net), fingerprint(t, restored))
			if !bytes.Equal(doc, snapshotBytes(t, restored)) {
				t.Fatalf("the restored world's snapshot differs from the document it was restored from:\n%s", doc)
			}
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
// nodes unless the failure left the stream where it was. The determinism
// matrix's mixed trace carries one failing call; this table carries one
// for every op kind that can fail, which no trace does.
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
// world's own in-place edits of its id array under Compact. The
// determinism matrix replays journals whose callers never touch their
// slices again, so it cannot see aliasing; this test edits them.
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
