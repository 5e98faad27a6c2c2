// Package radio models the wireless medium at the abstraction level the
// paper uses: time is divided into steps Δ(τ); in each step every node
// locally broadcasts one frame and each neighbor receives it with some
// probability at least τ > 0 (the CSMA/CA collision abstraction of
// Section 4). Three media are provided:
//
//   - Perfect: τ = 1 — every broadcast reaches every neighbor (the step
//     semantics of Section 5 / Table 2);
//   - Bernoulli: each (sender, receiver) delivery succeeds independently
//     with probability τ — the paper's analytical assumption;
//   - Slotted: an explicit slotted-CSMA model in which each node picks a
//     random slot and a receiver loses every frame whose slot collides in
//     its own neighborhood; τ becomes emergent instead of assumed.
//
// A medium never sees frame contents. It decides which (sender, receiver)
// pairs deliver this step and records them in an Inbox — a CSR-style flat
// structure of sender indices per receiver. The protocol layer keeps one
// typed frame per sender and resolves the indices itself, so a step costs
// no per-frame boxing or per-edge allocation.
package radio

import (
	"fmt"

	"selfstab/internal/rng"
	"selfstab/internal/topology"
)

// Inbox is one step's delivery outcome in CSR form: the senders heard by
// receiver r are Senders(r), ascending. All backing arrays are reused
// across steps — after the first few steps a Deliver call allocates
// nothing. An Inbox must only be read until the next Deliver into it.
type Inbox struct {
	off     []int32
	senders []int32
	cur     []int32 // scratch cursor for FromPairs
}

// Reset prepares the inbox for n receivers whose rows will be appended in
// receiver order via Append/FinishRow.
func (in *Inbox) Reset(n int) {
	if cap(in.off) < n+1 {
		in.off = make([]int32, 1, n+1)
	} else {
		in.off = in.off[:1]
	}
	in.off[0] = 0
	in.senders = in.senders[:0]
}

// Append records that the receiver whose row is currently open hears
// sender s. Rows open implicitly: after Reset the row of receiver 0 is
// open; FinishRow closes it and opens the next.
func (in *Inbox) Append(s int) { in.senders = append(in.senders, int32(s)) }

// FinishRow closes the current receiver's row.
func (in *Inbox) FinishRow() { in.off = append(in.off, int32(len(in.senders))) }

// FromPairs fills the inbox from parallel (receiver, sender) pair lists in
// any order, using a stable counting sort by receiver. Media whose random
// draws happen in sender-major order (Bernoulli) use this so the rng
// stream stays identical to the historical sender-major broadcast loop.
func (in *Inbox) FromPairs(n int, recv, send []int32) {
	if cap(in.off) < n+1 {
		in.off = make([]int32, n+1)
	} else {
		in.off = in.off[:n+1]
	}
	for i := range in.off {
		in.off[i] = 0
	}
	for _, r := range recv {
		in.off[r+1]++
	}
	for i := 1; i <= n; i++ {
		in.off[i] += in.off[i-1]
	}
	if cap(in.cur) < n {
		in.cur = make([]int32, n)
	} else {
		in.cur = in.cur[:n]
	}
	copy(in.cur, in.off[:n])
	if cap(in.senders) < len(send) {
		in.senders = make([]int32, len(send))
	} else {
		in.senders = in.senders[:len(send)]
	}
	for i, r := range recv {
		in.senders[in.cur[r]] = send[i]
		in.cur[r]++
	}
}

// N returns the number of receiver rows.
func (in *Inbox) N() int { return len(in.off) - 1 }

// Senders returns the sender indices heard by receiver r this step,
// ascending. The slice aliases the inbox; do not retain it across steps.
func (in *Inbox) Senders(r int) []int32 { return in.senders[in.off[r]:in.off[r+1]] }

// Medium decides one step of local broadcast outcomes.
type Medium interface {
	// Deliver computes which sender→receiver deliveries succeed this step
	// and writes them into in (reusing its backing arrays). active[s]
	// false means node s stays silent this step; a nil active slice means
	// every node broadcasts. Deliver must be called from a single
	// goroutine — it owns the medium's rng stream.
	Deliver(g *topology.Graph, active []bool, in *Inbox) error
}

func sending(active []bool, s int) bool { return active == nil || active[s] }

// Perfect is the lossless medium: every frame reaches every neighbor.
type Perfect struct{}

var _ Medium = Perfect{}

// Deliver implements Medium.
func (Perfect) Deliver(g *topology.Graph, active []bool, in *Inbox) error {
	n := g.N()
	if active != nil && len(active) != n {
		return fmt.Errorf("radio: %d active flags for %d nodes", len(active), n)
	}
	in.Reset(n)
	for r := 0; r < n; r++ {
		for _, s := range g.Neighbors(r) {
			if sending(active, s) {
				in.Append(s)
			}
		}
		in.FinishRow()
	}
	return nil
}

// Bernoulli delivers each (sender, receiver) pair independently with
// probability Tau. It realizes the paper's hypothesis "there exists a
// constant τ > 0 such that the probability of a frame transmission without
// collision is at least τ" with a memoryless distribution.
type Bernoulli struct {
	Tau float64
	Src *rng.Source

	recv, send []int32 // scratch pair lists, reused across steps
}

var _ Medium = (*Bernoulli)(nil)

// NewBernoulli validates tau and returns the medium.
func NewBernoulli(tau float64, src *rng.Source) (*Bernoulli, error) {
	if tau <= 0 || tau > 1 {
		return nil, fmt.Errorf("radio: tau must be in (0, 1], got %v", tau)
	}
	if src == nil {
		return nil, fmt.Errorf("radio: nil rng source")
	}
	return &Bernoulli{Tau: tau, Src: src}, nil
}

// Deliver implements Medium. Loss draws happen in sender-major order (one
// per directed edge with an active sender), then the pairs are
// counting-sorted into receiver rows.
func (m *Bernoulli) Deliver(g *topology.Graph, active []bool, in *Inbox) error {
	n := g.N()
	if active != nil && len(active) != n {
		return fmt.Errorf("radio: %d active flags for %d nodes", len(active), n)
	}
	m.recv, m.send = m.recv[:0], m.send[:0]
	for s := 0; s < n; s++ {
		if !sending(active, s) {
			continue
		}
		for _, r := range g.Neighbors(s) {
			if m.Tau >= 1 || m.Src.Float64() < m.Tau {
				m.recv = append(m.recv, int32(r))
				m.send = append(m.send, int32(s))
			}
		}
	}
	in.FromPairs(n, m.recv, m.send)
	return nil
}

// Slotted is an explicit slotted-CSMA abstraction: each step has Slots
// transmission slots, every sender picks one uniformly, and a receiver
// successfully decodes a frame iff exactly one of its neighbors transmitted
// in that slot and the receiver itself did not transmit in it (half-duplex).
// The per-link success probability is then emergent:
// roughly ((Slots-1)/Slots)^deg — the τ of the paper's hypothesis.
type Slotted struct {
	Slots int
	Src   *rng.Source

	slot []int // scratch, reused across steps
}

var _ Medium = (*Slotted)(nil)

// NewSlotted validates the slot count and returns the medium.
func NewSlotted(slots int, src *rng.Source) (*Slotted, error) {
	if slots < 1 {
		return nil, fmt.Errorf("radio: need at least 1 slot, got %d", slots)
	}
	if src == nil {
		return nil, fmt.Errorf("radio: nil rng source")
	}
	return &Slotted{Slots: slots, Src: src}, nil
}

// Deliver implements Medium.
func (m *Slotted) Deliver(g *topology.Graph, active []bool, in *Inbox) error {
	n := g.N()
	if active != nil && len(active) != n {
		return fmt.Errorf("radio: %d active flags for %d nodes", len(active), n)
	}
	if cap(m.slot) < n {
		m.slot = make([]int, n)
	} else {
		m.slot = m.slot[:n]
	}
	for s := range m.slot {
		m.slot[s] = m.Src.Intn(m.Slots)
	}
	in.Reset(n)
	for r := 0; r < n; r++ {
		for _, s := range g.Neighbors(r) {
			if !sending(active, s) {
				continue
			}
			if m.slot[s] == m.slot[r] && sending(active, r) {
				continue // r was transmitting in that slot (half-duplex)
			}
			collided := false
			for _, s2 := range g.Neighbors(r) {
				if s2 != s && sending(active, s2) && m.slot[s2] == m.slot[s] {
					collided = true
					break
				}
			}
			if !collided {
				in.Append(s)
			}
		}
		in.FinishRow()
	}
	return nil
}
