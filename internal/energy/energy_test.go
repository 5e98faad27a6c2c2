package energy

import (
	"math"
	"testing"
)

// fixture is a hand-driven network of n nodes backing the hooks: tests
// flip roles, statuses and counters directly.
type fixture struct {
	alive    []bool
	sleeping []bool
	head     []bool
	tx, rx   []int64
	killed   []int
	scales   map[int]float64
}

func newFixture(n int) *fixture {
	f := &fixture{
		alive:    make([]bool, n),
		sleeping: make([]bool, n),
		head:     make([]bool, n),
		tx:       make([]int64, n),
		rx:       make([]int64, n),
		scales:   map[int]float64{},
	}
	for i := range f.alive {
		f.alive[i] = true
	}
	return f
}

func (f *fixture) hooks(withTraffic bool) Hooks {
	h := Hooks{
		Role: func(i int) Role {
			switch {
			case f.alive[i] && f.head[i]:
				return RoleHead
			case f.alive[i]:
				return RoleMember
			case f.sleeping[i]:
				return RoleSleep
			}
			return RoleDead
		},
		Kill: func(i int) error {
			f.killed = append(f.killed, i)
			f.alive[i] = false
			f.sleeping[i] = false
			return nil
		},
		Scale: func(i int, s float64) error {
			f.scales[i] = s
			return nil
		},
	}
	if withTraffic {
		h.Counters = func() (tx, rx []int64) { return f.tx, f.rx }
	}
	return h
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestDrainByRole(t *testing.T) {
	f := newFixture(3)
	f.head[0] = true
	f.sleeping[2] = true
	f.alive[2] = false
	e, err := New(3, Config{Capacity: 1, IdleHeadCost: 0.01, IdleMemberCost: 0.001, SleepCost: 0.0001, TxCost: 0.1, RxCost: 0.05}, f.hooks(true))
	if err != nil {
		t.Fatal(err)
	}
	f.tx[0] = 2 // the head transmitted twice this step
	f.rx[1] = 3 // the member received three packets
	if err := e.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := e.Remaining(0); !almost(got, 1-0.01-2*0.1) {
		t.Errorf("head battery %v, want %v", got, 1-0.01-2*0.1)
	}
	if got := e.Remaining(1); !almost(got, 1-0.001-3*0.05) {
		t.Errorf("member battery %v, want %v", got, 1-0.001-3*0.05)
	}
	if got := e.Remaining(2); !almost(got, 1-0.0001) {
		t.Errorf("sleeper battery %v, want %v", got, 1-0.0001)
	}
	s := e.Stats()
	if s.HeadSteps != 1 || s.MemberSteps != 1 || s.SleepSteps != 1 {
		t.Errorf("role exposure: %+v", s)
	}
	if !almost(s.DrainTx, 0.2) || !almost(s.DrainRx, 0.15) {
		t.Errorf("traffic drain: %+v", s)
	}
	if !almost(s.TotalDrain, s.DrainHead+s.DrainMember+s.DrainSleep+s.DrainTx+s.DrainRx) {
		t.Errorf("drain identity broken: %+v", s)
	}
	// Deltas, not totals: an unchanged counter charges nothing more.
	if err := e.Step(2); err != nil {
		t.Fatal(err)
	}
	if s2 := e.Stats(); !almost(s2.DrainTx, 0.2) {
		t.Errorf("unchanged tx counter charged again: %v", s2.DrainTx)
	}
}

func TestDepletionKillsInNodeOrder(t *testing.T) {
	f := newFixture(3)
	e, err := New(3, Config{Capacity: 0.005, IdleMemberCost: 0.002}, f.hooks(false))
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		if err := e.Step(step); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Depletions != 3 || s.FirstDeathStep != 3 {
		t.Fatalf("depletions %d first death %d, want 3 at step 3", s.Depletions, s.FirstDeathStep)
	}
	if len(f.killed) != 3 || f.killed[0] != 0 || f.killed[1] != 1 || f.killed[2] != 2 {
		t.Fatalf("kill order %v, want [0 1 2]", f.killed)
	}
	// Depleted nodes are inert: no further drain, battery pinned at zero.
	if err := e.Step(4); err != nil {
		t.Fatal(err)
	}
	if e.Remaining(0) != 0 || !e.depleted[0] {
		t.Errorf("depleted node not pinned at zero")
	}
	if s2 := e.Stats(); s2.TotalDrain != s.TotalDrain {
		t.Errorf("dead slots kept draining: %v -> %v", s.TotalDrain, s2.TotalDrain)
	}
}

func TestDeadByChurnStopsDraining(t *testing.T) {
	f := newFixture(2)
	e, err := New(2, Config{IdleMemberCost: 0.1}, f.hooks(false))
	if err != nil {
		t.Fatal(err)
	}
	f.alive[1] = false // churn killed it outside the battery model
	if err := e.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := e.Remaining(1); got != 1 {
		t.Errorf("churn-dead node drained to %v", got)
	}
	if e.depleted[1] {
		t.Error("churn death misreported as depletion")
	}
}

func TestRotationQuantization(t *testing.T) {
	f := newFixture(1)
	e, err := New(1, Config{
		Capacity:       1,
		IdleMemberCost: 0.06,
		Rotation:       true,
		RotationLevels: 4,
	}, f.hooks(false))
	if err != nil {
		t.Fatal(err)
	}
	// Battery walks 1.0 → 0.94 → ... in 0.06 steps; with 4 levels the
	// scale must only change when a 0.25 boundary is crossed: at 0.70
	// (step 5), 0.46 (step 9) and 0.22 (step 13).
	want := map[int]float64{5: 0.75, 9: 0.5, 13: 0.25}
	for step := 1; step <= 14; step++ {
		prev := f.scales[0]
		if err := e.Step(step); err != nil {
			t.Fatal(err)
		}
		if w, ok := want[step]; ok {
			if !almost(f.scales[0], w) {
				t.Errorf("step %d: scale %v, want %v", step, f.scales[0], w)
			}
		} else if f.scales[0] != prev {
			t.Errorf("step %d: scale moved to %v without a boundary crossing", step, f.scales[0])
		}
	}
	if got := float64(e.level[0]) / float64(e.cfg.RotationLevels); !almost(got, 0.25) {
		t.Errorf("rotation level scale %v, want 0.25", got)
	}
}

func TestCounterResetRebaselines(t *testing.T) {
	f := newFixture(1)
	e, err := New(1, Config{Capacity: 10, IdleMemberCost: 0.0001, TxCost: 0.1, RxCost: 0.1}, f.hooks(true))
	if err != nil {
		t.Fatal(err)
	}
	f.tx[0], f.rx[0] = 10, 10
	if err := e.Step(1); err != nil {
		t.Fatal(err)
	}
	drained := e.Stats().TotalDrain
	f.tx[0], f.rx[0] = 2, 2 // a re-attached data plane restarts its counters
	if err := e.Step(2); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if got := s.TotalDrain - drained; !almost(got, 0.0001) {
		t.Errorf("counter reset charged %v beyond idle", got-0.0001)
	}
	f.tx[0] = 3 // one transmission after the re-baseline
	if err := e.Step(3); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().DrainTx - s.DrainTx; !almost(got, 0.1) {
		t.Errorf("post-reset delta charged %v, want 0.1", got)
	}
	// A detached data plane reads as nil counters: nothing is charged and
	// the baseline drops to 0, so a re-attach charges from its own zero.
	tx, rx := f.tx, f.rx
	f.tx, f.rx = nil, nil
	s = e.Stats()
	if err := e.Step(4); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().TotalDrain - s.TotalDrain; !almost(got, 0.0001) {
		t.Errorf("a detached data plane charged %v beyond idle", got-0.0001)
	}
	f.tx, f.rx = tx, rx
	tx[0], rx[0] = 1, 0
	s = e.Stats()
	if err := e.Step(5); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().DrainTx - s.DrainTx; !almost(got, 0.1) {
		t.Errorf("first transmission after a re-attach charged %v, want 0.1", got)
	}
}

// TestRotationFloorIsExact: floor[l] is the exact lower edge of level l —
// it quantizes to l or above, and the next float64 below it does not — so
// skipping quantize while the battery stays at or above floor[level]
// never misses a crossing.
func TestRotationFloorIsExact(t *testing.T) {
	for _, capacity := range []float64{1, 0.3, 1e6} {
		for _, levels := range []int{2, 8, 1024} {
			e, err := New(1, Config{Capacity: capacity, IdleMemberCost: 0.001, Rotation: true, RotationLevels: levels}, newFixture(1).hooks(false))
			if err != nil {
				t.Fatal(err)
			}
			if len(e.floor) != levels+1 {
				t.Fatalf("capacity %v levels %d: %d floors", capacity, levels, len(e.floor))
			}
			for l := 2; l <= levels; l++ {
				f := e.floor[l]
				if got := e.quantize(f); int(got) < l {
					t.Fatalf("capacity %v levels %d: quantize(floor[%d] = %v) = %d", capacity, levels, l, f, got)
				}
				if below := math.Nextafter(f, 0); int(e.quantize(below)) >= l {
					t.Fatalf("capacity %v levels %d: %v, one ulp below floor[%d], still quantizes to %d", capacity, levels, below, l, e.quantize(below))
				}
			}
		}
	}
}

func TestResizeGivesFullBatteries(t *testing.T) {
	f := newFixture(2)
	e, err := New(2, Config{Capacity: 0.5, IdleMemberCost: 0.1}, f.hooks(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(1); err != nil {
		t.Fatal(err)
	}
	f.alive = append(f.alive, true)
	f.sleeping = append(f.sleeping, false)
	f.head = append(f.head, false)
	e.Resize(3)
	if got := e.Remaining(2); got != 0.5 {
		t.Errorf("arrival battery %v, want full 0.5", got)
	}
	if err := e.Step(2); err != nil {
		t.Fatal(err)
	}
	if got := e.Remaining(2); !almost(got, 0.4) {
		t.Errorf("arrival drained to %v, want 0.4", got)
	}
}

func TestStatsHistogramAndRemaining(t *testing.T) {
	f := newFixture(4)
	e, err := New(4, Config{Capacity: 1, IdleMemberCost: 0.3}, f.hooks(false))
	if err != nil {
		t.Fatal(err)
	}
	f.head[0] = true // heads pay 0 here (IdleHead zero): battery stays full
	if err := e.Step(1); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	// Node 0 at 1.0 (clamped into the top decile), nodes 1-3 at 0.7.
	if s.Histogram[9] != 1 || s.Histogram[7] != 3 {
		t.Errorf("histogram %v", s.Histogram)
	}
	if !almost(s.MinRemaining, 0.7) || !almost(s.MeanRemaining, (1+3*0.7)/4) {
		t.Errorf("remaining summary %+v", s)
	}
}

func TestValidation(t *testing.T) {
	f := newFixture(1)
	if _, err := New(0, Config{}, f.hooks(false)); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(1, Config{Capacity: -1}, f.hooks(false)); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(1, Config{TxCost: -1}, f.hooks(false)); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := New(1, Config{Rotation: true, RotationLevels: 1}, f.hooks(false)); err == nil {
		t.Error("single rotation level accepted")
	}
	if _, err := New(1, Config{Rotation: true, RotationLevels: 4096}, f.hooks(false)); err == nil {
		t.Error("out-of-range rotation levels accepted")
	}
	if _, err := New(1, Config{}, Hooks{}); err == nil {
		t.Error("missing hooks accepted")
	}
	h := f.hooks(false)
	h.Scale = nil
	if _, err := New(1, Config{Rotation: true}, h); err == nil {
		t.Error("rotation without a Scale hook accepted")
	}
}

func TestStepIsAllocationFree(t *testing.T) {
	f := newFixture(64)
	for i := range f.head {
		f.head[i] = i%8 == 0
	}
	e, err := New(64, Config{Rotation: true}, f.hooks(true))
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		step++
		for i := range f.tx {
			f.tx[i]++
			f.rx[i]++
		}
		if err := e.Step(step); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("energy step allocates %.2f/op, want 0", allocs)
	}
}
