package energy

import "selfstab/internal/runtime"

// Stats is the battery ledger at a point in time. The drain identity
// DrainHead + DrainMember + DrainSleep + DrainTx + DrainRx == TotalDrain
// holds at every step boundary, and every unit drained came out of some
// battery: sum(initial capacities) - sum(Remaining over non-depleted
// slots) - (depleted batteries, fully spent) == TotalDrain.
type Stats struct {
	// Steps is how many steps the battery model itself has run.
	Steps int

	// FirstDeathStep is the completed-step count at which the first
	// battery depleted — the classic "network lifetime" metric. -1 while
	// every battery is above zero.
	FirstDeathStep int
	// Depletions counts batteries that crossed zero (each one killed the
	// node when the churn hook is wired).
	Depletions int

	// Per-cause drain breakdown, in energy units summed over all nodes.
	DrainHead   float64 // idle cost paid while serving as cluster-head
	DrainMember float64 // idle cost paid as an ordinary awake node
	DrainSleep  float64 // cost paid while duty-cycled
	DrainTx     float64 // per-packet transmission cost
	DrainRx     float64 // per-packet reception cost
	TotalDrain  float64

	// Node-step role exposure: how many (node, step) pairs were spent in
	// each role. HeadShare is HeadSteps over the awake total — the head
	// burden the rotation policy spreads.
	HeadSteps   int64
	MemberSteps int64
	SleepSteps  int64
	HeadShare   float64

	// Remaining-energy summary over the operating (alive or sleeping)
	// population, as fractions of capacity. MeanRemaining/MinRemaining
	// are 0 when no node is operating.
	MeanRemaining float64
	MinRemaining  float64
	// Histogram buckets the operating population by remaining fraction
	// into 10 deciles: Histogram[k] counts fractions in [k/10, (k+1)/10),
	// with a full battery clamped into Histogram[9]. The alive-energy
	// histogram of the lifetime experiments.
	Histogram [10]int64

	// Rotation reports whether energy-aware head rotation was active.
	Rotation bool
}

// Stats snapshots the ledger. The remaining-energy summary spans the
// operating population only: depleted and churn-killed slots would drag
// the mean toward zero forever.
func (e *Engine) Stats() Stats {
	s := Stats{
		Steps:          e.stepsRun,
		FirstDeathStep: e.firstDeath,
		Depletions:     e.deaths,
		DrainHead:      e.acc.drainHead,
		DrainMember:    e.acc.drainMember,
		DrainSleep:     e.acc.drainSleep,
		DrainTx:        e.acc.drainTx,
		DrainRx:        e.acc.drainRx,
		HeadSteps:      e.acc.headSteps,
		MemberSteps:    e.acc.memberSteps,
		SleepSteps:     e.acc.sleepSteps,
		Rotation:       e.cfg.Rotation,
		MinRemaining:   0,
	}
	s.TotalDrain = s.DrainHead + s.DrainMember + s.DrainSleep + s.DrainTx + s.DrainRx
	if awake := s.HeadSteps + s.MemberSteps; awake > 0 {
		s.HeadShare = float64(s.HeadSteps) / float64(awake)
	}
	sum := 0.0
	min := -1.0
	operating := 0
	status, _ := e.hooks.Roles()
	for i := 0; i < e.n; i++ {
		if e.depleted[i] || status[i] == runtime.StatusDead {
			continue
		}
		frac := e.battery[i] / e.cfg.Capacity
		sum += frac
		if min < 0 || frac < min {
			min = frac
		}
		bucket := int(frac * 10)
		if bucket > 9 {
			bucket = 9
		}
		if bucket < 0 {
			bucket = 0
		}
		s.Histogram[bucket]++
		operating++
	}
	if operating > 0 {
		s.MeanRemaining = sum / float64(operating)
		s.MinRemaining = min
	}
	return s
}
