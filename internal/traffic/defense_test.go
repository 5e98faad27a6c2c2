package traffic

import (
	"strings"
	"testing"

	"selfstab/internal/slot"
)

// headLineHooks is lineHooks plus a head predicate backed by *headIdx, so
// tests can move the head (e.g. across a compaction remap) mid-run.
func headLineHooks(headIdx *int) Hooks {
	h := lineHooks()
	h.IsHead = func(i int) bool { return i == *headIdx }
	return h
}

// TestSourceCapRateLimit: a CBR source offering 3 packets per step under
// SourceCap 1 has exactly two refused at the NIC every step, accounted
// DropsRateLimit — never silently vanished.
func TestSourceCapRateLimit(t *testing.T) {
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 1, Rate: 3}}
	e := mustEngine(t, 2, cfg, flows, lineHooks(), 1)
	if err := e.SetDefense(Defense{SourceCap: 1}); err != nil {
		t.Fatal(err)
	}
	runSteps(t, e, 50)
	s := e.Stats()
	checkLedger(t, s)
	if s.Offered != 150 {
		t.Errorf("offered %d, want 150 (the workload still generates, the NIC refuses)", s.Offered)
	}
	if s.DropsRateLimit != 100 {
		t.Errorf("rate-limit drops %d, want 100 (2 of 3 per step)", s.DropsRateLimit)
	}
}

// TestHeadAdmissionFinalHop: a flood addressed TO a head is gated by the
// head's bucket at delivery, not just in transit — the head sheds the
// excess as DropsAdmission instead of absorbing it.
func TestHeadAdmissionFinalHop(t *testing.T) {
	head := 1
	// Budget 4 so the link carries the whole flood each step; the bucket
	// refilling 1/step is then the binding constraint.
	cfg, flows := Config{Budget: 4}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 1, Rate: 2}}
	e := mustEngine(t, 2, cfg, flows, headLineHooks(&head), 1)
	if err := e.SetDefense(Defense{HeadAdmission: true, HeadRate: 1, HeadBurst: 1}); err != nil {
		t.Fatal(err)
	}
	runSteps(t, e, 60)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsAdmission == 0 {
		t.Fatal("no admission drops: the final hop bypassed the bucket")
	}
	// One token refills per step, so deliveries are capped near one per
	// step; without the gate all 120 offered packets would deliver.
	if s.Delivered > 65 {
		t.Errorf("delivered %d of %d, want the bucket to cap near 60", s.Delivered, s.Offered)
	}
}

// TestHeadAdmissionTransit: a head on the transit path applies the same
// bucket to packets entering its queue.
func TestHeadAdmissionTransit(t *testing.T) {
	head := 1
	cfg, flows := Config{Budget: 4}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 2, Rate: 2}}
	e := mustEngine(t, 3, cfg, flows, headLineHooks(&head), 1)
	if err := e.SetDefense(Defense{HeadAdmission: true, HeadRate: 1, HeadBurst: 1}); err != nil {
		t.Fatal(err)
	}
	runSteps(t, e, 60)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsAdmission == 0 {
		t.Fatal("no admission drops at the transit head")
	}
	if s.Delivered > 65 {
		t.Errorf("delivered %d, want the transit bucket to cap near 60", s.Delivered)
	}
}

// TestDefenseUndefendedBaseline: with no defense installed the new drop
// reasons stay zero even with a head predicate present.
func TestDefenseUndefendedBaseline(t *testing.T) {
	head := 1
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 1, Rate: 2}}
	e := mustEngine(t, 2, cfg, flows, headLineHooks(&head), 1)
	runSteps(t, e, 40)
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsAdmission != 0 || s.DropsRateLimit != 0 {
		t.Errorf("undefended run recorded defense drops: %+v", s)
	}
}

// TestSetDefenseValidation: a bad config is refused and the installed
// defense is untouched.
func TestSetDefenseValidation(t *testing.T) {
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 0, Dst: 1, Rate: 1}}
	e := mustEngine(t, 2, cfg, flows, lineHooks(), 1)
	good := Defense{SourceCap: 2}
	if err := e.SetDefense(good); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDefense(Defense{HeadAdmission: true}); err == nil {
		t.Error("head admission without rate/burst accepted")
	} else if !strings.Contains(err.Error(), "rate") {
		t.Errorf("error %v does not explain the missing rate", err)
	}
	if err := e.SetDefense(Defense{SourceCap: -1}); err == nil {
		t.Error("negative source cap accepted")
	}
	if e.defense != good {
		t.Errorf("failed SetDefense mutated the installed defense: %+v", e.defense)
	}
}

// TestDefenseAcrossResizeAndCompact: the per-node defense arrays follow
// the slot lifecycle — Resize gives newcomers fresh buckets and counters,
// Compact remaps survivors — with the ledger identity intact throughout.
func TestDefenseAcrossResizeAndCompact(t *testing.T) {
	head := 2
	cfg, flows := Config{}, []FlowSpec{{Kind: CBR, Src: 1, Dst: 2, Rate: 2}}
	e := mustEngine(t, 3, cfg, flows, headLineHooks(&head), 1)
	if err := e.SetDefense(Defense{HeadAdmission: true, HeadRate: 1, HeadBurst: 1, SourceCap: 1}); err != nil {
		t.Fatal(err)
	}
	runSteps(t, e, 10)

	// A newcomer joins and starts its own flow at the head: both defenses
	// must apply to the fresh slot.
	e.Resize(5)
	if err := e.AddFlows([]FlowSpec{{Kind: CBR, Src: 4, Dst: 2, Rate: 2}}); err != nil {
		t.Fatal(err)
	}
	for s := 11; s <= 30; s++ {
		if err := e.Step(s); err != nil {
			t.Fatal(err)
		}
	}
	mid := e.Stats()
	checkLedger(t, mid)
	if mid.DropsRateLimit == 0 || mid.DropsAdmission == 0 {
		t.Fatalf("defenses silent before compaction: %+v", mid)
	}

	// Drop the never-used slot 0; every survivor shifts down one, the head
	// included.
	if err := e.Compact(slot.Plan(5, func(i int) bool { return i == 0 })); err != nil {
		t.Fatal(err)
	}
	head = 1
	for s := 31; s <= 60; s++ {
		if err := e.Step(s); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	checkLedger(t, s)
	if s.DropsRateLimit <= mid.DropsRateLimit {
		t.Errorf("rate limit stopped firing after compaction: %d -> %d", mid.DropsRateLimit, s.DropsRateLimit)
	}
	if s.DropsAdmission <= mid.DropsAdmission {
		t.Errorf("admission stopped firing after compaction: %d -> %d", mid.DropsAdmission, s.DropsAdmission)
	}
}
