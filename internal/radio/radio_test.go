package radio

import (
	"math"
	"testing"

	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

func star(t *testing.T, leaves int) *topology.Graph {
	t.Helper()
	g := topology.New(leaves + 1)
	for v := 1; v <= leaves; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// allBut returns an active mask with the given nodes silenced.
func allBut(n int, silent ...int) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	for _, s := range silent {
		active[s] = false
	}
	return active
}

func deliver(t *testing.T, m Medium, g *topology.Graph, active []bool) *Inbox {
	t.Helper()
	var in Inbox
	if err := m.Deliver(g, active, &in); err != nil {
		t.Fatal(err)
	}
	return &in
}

func TestPerfectDeliversAll(t *testing.T) {
	g := star(t, 4)
	in := deliver(t, Perfect{}, g, nil)
	if len(in.Senders(0)) != 4 {
		t.Errorf("center received %d frames, want 4", len(in.Senders(0)))
	}
	for v := 1; v < 5; v++ {
		row := in.Senders(v)
		if len(row) != 1 || row[0] != 0 {
			t.Errorf("leaf %d inbox: %v", v, row)
		}
	}
	if in.N() != 5 || len(in.senders) != 8 {
		t.Errorf("inbox shape N=%d total=%d, want 5/8", in.N(), len(in.senders))
	}
}

func TestPerfectSendersAscending(t *testing.T) {
	g := star(t, 4)
	in := deliver(t, Perfect{}, g, nil)
	row := in.Senders(0)
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			t.Fatalf("senders not ascending: %v", row)
		}
	}
}

func TestPerfectSilentNode(t *testing.T) {
	g := star(t, 2)
	in := deliver(t, Perfect{}, g, allBut(3, 0))
	for v := 1; v <= 2; v++ {
		if len(in.Senders(v)) != 0 {
			t.Errorf("leaf %d heard silent center: %v", v, in.Senders(v))
		}
	}
	if len(in.Senders(0)) != 2 {
		t.Errorf("center inbox: %v", in.Senders(0))
	}
}

func TestPerfectActiveSizeMismatch(t *testing.T) {
	g := star(t, 2)
	var in Inbox
	if err := (Perfect{}).Deliver(g, make([]bool, 2), &in); err == nil {
		t.Error("active size mismatch accepted")
	}
}

// TestInboxReuseAcrossSteps: delivering into the same inbox twice reuses the
// backing arrays and yields the same (deterministic) result.
func TestInboxReuseAcrossSteps(t *testing.T) {
	g := star(t, 4)
	var in Inbox
	for step := 0; step < 3; step++ {
		if err := (Perfect{}).Deliver(g, nil, &in); err != nil {
			t.Fatal(err)
		}
		if len(in.Senders(0)) != 4 || len(in.senders) != 8 {
			t.Fatalf("step %d: inbox corrupted on reuse", step)
		}
	}
}

func TestBernoulliValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := NewBernoulli(0, src); err == nil {
		t.Error("tau=0 accepted")
	}
	if _, err := NewBernoulli(1.5, src); err == nil {
		t.Error("tau>1 accepted")
	}
	if _, err := NewBernoulli(0.5, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestBernoulliTauOneIsPerfect(t *testing.T) {
	g := star(t, 5)
	m, err := NewBernoulli(1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	in := deliver(t, m, g, nil)
	if len(in.Senders(0)) != 5 {
		t.Errorf("tau=1 dropped frames: %d/5", len(in.Senders(0)))
	}
}

func TestBernoulliDeliveryRate(t *testing.T) {
	g := star(t, 1)
	const tau = 0.3
	m, err := NewBernoulli(tau, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	const trials = 5000
	var in Inbox
	for i := 0; i < trials; i++ {
		if err := m.Deliver(g, nil, &in); err != nil {
			t.Fatal(err)
		}
		delivered += len(in.Senders(1))
	}
	rate := float64(delivered) / trials
	if math.Abs(rate-tau) > 0.03 {
		t.Errorf("delivery rate = %v, want ~%v", rate, tau)
	}
}

// TestBernoulliMatchesLegacyOrder pins the rng consumption order: draws are
// sender-major over directed edges, so a fixed seed yields the same losses
// as the historical Broadcast loop regardless of the CSR representation.
func TestBernoulliMatchesLegacyOrder(t *testing.T) {
	g := star(t, 3)
	m, err := NewBernoulli(0.5, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	in := deliver(t, m, g, nil)

	// Replay the draws the way the legacy sender-major loop did.
	src := rng.New(9)
	want := make(map[int][]int32)
	for s := 0; s < g.N(); s++ {
		for _, r := range g.Neighbors(s) {
			if src.Float64() < 0.5 {
				want[r] = append(want[r], int32(s))
			}
		}
	}
	for r := 0; r < g.N(); r++ {
		got := in.Senders(r)
		if len(got) != len(want[r]) {
			t.Fatalf("receiver %d: got %v want %v", r, got, want[r])
		}
		for i := range got {
			if got[i] != want[r][i] {
				t.Fatalf("receiver %d: got %v want %v", r, got, want[r])
			}
		}
	}
}

func TestSlottedValidation(t *testing.T) {
	if _, err := NewSlotted(0, rng.New(1)); err == nil {
		t.Error("0 slots accepted")
	}
	if _, err := NewSlotted(4, nil); err == nil {
		t.Error("nil source accepted")
	}
}

// TestSlottedSingleSlotAlwaysCollides: with one slot and two competing
// neighbors, the receiver can never decode either frame.
func TestSlottedSingleSlotAlwaysCollides(t *testing.T) {
	g := star(t, 2) // center 0 hears leaves 1 and 2
	m, err := NewSlotted(1, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	active := allBut(3, 0) // center silent, leaves compete
	var in Inbox
	for i := 0; i < 20; i++ {
		if err := m.Deliver(g, active, &in); err != nil {
			t.Fatal(err)
		}
		if len(in.Senders(0)) != 0 {
			t.Fatalf("collision not enforced: %v", in.Senders(0))
		}
	}
}

// TestSlottedIsolatedLinkAlwaysDelivers: a single sender to a silent
// receiver always succeeds (no competitors, no half-duplex conflict).
func TestSlottedIsolatedLinkAlwaysDelivers(t *testing.T) {
	g := star(t, 1)
	m, err := NewSlotted(4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	active := allBut(2, 0)
	var in Inbox
	for i := 0; i < 20; i++ {
		if err := m.Deliver(g, active, &in); err != nil {
			t.Fatal(err)
		}
		if len(in.Senders(0)) != 1 {
			t.Fatal("lossless single link dropped a frame")
		}
	}
}

// TestSlottedEmergentTau measures the realized delivery probability on a
// clique; we only require it to sit strictly between 0 and 1 and grow
// with the slot count.
func TestSlottedEmergentTau(t *testing.T) {
	// Clique of 5: every broadcast competes with 3 other senders at each
	// receiver plus the receiver's own transmission.
	g := topology.New(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	rate := func(slots int) float64 {
		m, err := NewSlotted(slots, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		delivered, possible := 0, 0
		var in Inbox
		for i := 0; i < 2000; i++ {
			if err := m.Deliver(g, nil, &in); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < g.N(); r++ {
				delivered += len(in.Senders(r))
				possible += g.Degree(r)
			}
		}
		return float64(delivered) / float64(possible)
	}
	few := rate(4)
	many := rate(64)
	if few <= 0 || few >= 1 {
		t.Errorf("4-slot tau = %v, want in (0,1)", few)
	}
	if many <= few {
		t.Errorf("more slots should raise tau: %v vs %v", many, few)
	}
	if many < 0.9 {
		t.Errorf("64 slots over degree 4 should deliver >90%%, got %v", many)
	}
}

func TestSlottedHalfDuplex(t *testing.T) {
	// Two nodes, one slot, both transmitting: neither can hear the other.
	g := star(t, 1)
	m, err := NewSlotted(1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	in := deliver(t, m, g, nil)
	if len(in.Senders(0)) != 0 || len(in.Senders(1)) != 0 {
		t.Errorf("half-duplex violated: %v / %v", in.Senders(0), in.Senders(1))
	}
}

func TestMediumNames(t *testing.T) {
	if (Perfect{}).Name() != "perfect" {
		t.Error("perfect name")
	}
	b, err := NewBernoulli(0.25, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "bernoulli(tau=0.25)" {
		t.Errorf("bernoulli name = %q", b.Name())
	}
	s, err := NewSlotted(8, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "slotted(8)" {
		t.Errorf("slotted name = %q", s.Name())
	}
}

// TestInboxFromPairsEmpty: zero pairs must still produce valid empty rows.
func TestInboxFromPairsEmpty(t *testing.T) {
	var in Inbox
	in.FromPairs(3, nil, nil)
	if in.N() != 3 || len(in.senders) != 0 {
		t.Fatalf("empty FromPairs: N=%d total=%d", in.N(), len(in.senders))
	}
	for r := 0; r < 3; r++ {
		if len(in.Senders(r)) != 0 {
			t.Fatalf("receiver %d not empty", r)
		}
	}
}
