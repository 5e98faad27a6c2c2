package runtime

import (
	"fmt"
	"testing"

	"selfstab/internal/geom"
	"selfstab/internal/radio"
	"selfstab/internal/rng"
)

// TestNthAliveMatchesScan drives random lifecycle transitions and checks
// the order-statistic index against a reference status scan after each.
func TestNthAliveMatchesScan(t *testing.T) {
	g, ids := randomNetwork(61, 80, 0.2)
	e := mustEngine(t, g, ids, basicProtocol(), radio.Perfect{}, 61)
	src := rng.New(517)
	check := func(when string) {
		t.Helper()
		k := 0
		for i := 0; i < len(e.nodes); i++ {
			if e.Status(i) != StatusAlive {
				continue
			}
			if got := e.NthAlive(k); got != i {
				t.Fatalf("%s: NthAlive(%d) = %d, want %d", when, k, got, i)
			}
			k++
		}
		if k != e.AliveCount() {
			t.Fatalf("%s: scanned %d alive, counter says %d", when, k, e.AliveCount())
		}
		if got := e.NthAlive(k); got != -1 {
			t.Fatalf("%s: NthAlive(%d) = %d beyond the population, want -1", when, k, got)
		}
		if got := e.NthAlive(-1); got != -1 {
			t.Fatalf("%s: NthAlive(-1) = %d, want -1", when, got)
		}
	}
	check("initial")
	for op := 0; op < 200; op++ {
		i := src.Intn(len(e.nodes))
		switch src.Intn(4) {
		case 0:
			if e.Status(i) != StatusDead && e.AliveCount() > 2 {
				if err := e.Kill(i); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if e.Status(i) == StatusAlive && e.AliveCount() > 2 {
				if err := e.Sleep(i, 0); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if e.Status(i) == StatusSleeping {
				if err := e.Wake(i); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			if e.Status(i) != StatusDead {
				if err := e.Reboot(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(fmt.Sprintf("op %d", op))
	}
}

// TestNthAliveAfterAppendAndCompact: the index tracks growth and survives
// a dead-slot compaction (rebuilt from the compacted statuses).
func TestNthAliveAfterAppendAndCompact(t *testing.T) {
	tw := newTwin(t, 733, 40, 0.2, basicProtocol(), true, 1)
	e := tw.e
	src := rng.New(733)
	for k := 0; k < 10; k++ {
		tw.apply(t, traceOp{kind: "append", point: geom.Point{X: src.Float64(), Y: src.Float64()}})
	}
	for k := 0; k < 12; k++ {
		i := src.Intn(len(e.nodes))
		if e.Status(i) != StatusDead && e.AliveCount() > 2 {
			tw.apply(t, traceOp{kind: "kill", node: i})
		}
	}
	r := e.CompactionRemap()
	if r.Dropped() == 0 {
		t.Fatal("no dead slots to compact")
	}
	if err := tw.gi.Compact(r); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(r); err != nil {
		t.Fatal(err)
	}
	k := 0
	for i := 0; i < len(e.nodes); i++ {
		if e.Status(i) != StatusAlive {
			continue
		}
		if got := e.NthAlive(k); got != i {
			t.Fatalf("after compact: NthAlive(%d) = %d, want %d", k, got, i)
		}
		k++
	}
	if got := e.NthAlive(k); got != -1 {
		t.Fatalf("after compact: NthAlive(%d) = %d, want -1", k, got)
	}
}
