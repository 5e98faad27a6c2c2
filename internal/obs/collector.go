package obs

import (
	"sync/atomic"
	"time"
)

// PhaseSpan is one phase's slice of a step. BeginNs is relative to the
// Collector's construction instant (monotonic).
type PhaseSpan struct {
	BeginNs int64
	DurNs   int64
	Ok      bool // the phase was emitted this step
}

// StepRecord is the complete observation of one Δ(τ) step.
type StepRecord struct {
	Seq     uint64 // publication index (monotonic across the run)
	Step    int    // the engine's completed-step count after the step
	BeginNs int64  // step start, relative to the Collector epoch
	DurNs   int64
	Changed bool // any shared variable moved

	Phases      [NumPhases]PhaseSpan
	Counters    [NumCounters]int64 // per-step value (gauges: last emitted; cumulative: this step's sum)
	CounterSeen [NumCounters]bool
}

// histBoundsNs are the histogram bucket upper bounds in nanoseconds
// (an implicit +Inf bucket follows): 1µs to 1s, wide enough to span a
// quiescent 10ns step and a million-node perturbed one.
const numHistBounds = 17

var histBoundsNs = [numHistBounds]int64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000, 100_000_000, 1_000_000_000,
}

// hist is a fixed-bucket latency histogram with atomic cells, so the
// metrics endpoint can read it while the step loop writes.
type hist struct {
	counts [numHistBounds + 1]atomic.Int64
	sumNs  atomic.Int64
	n      atomic.Int64
}

func (h *hist) observe(ns int64) {
	i := 0
	for i < len(histBoundsNs) && ns > histBoundsNs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(ns)
	h.n.Add(1)
}

// Histogram is a point-in-time copy of one latency histogram. Counts has
// one entry per bound plus the +Inf bucket.
type Histogram struct {
	BoundsNs []int64
	Counts   []int64
	SumNs    int64
	Count    int64
}

func (h *hist) snapshot() Histogram {
	out := Histogram{
		BoundsNs: histBoundsNs[:],
		Counts:   make([]int64, numHistBounds+1),
		SumNs:    h.sumNs.Load(),
		Count:    h.n.Load(),
	}
	for i := range out.Counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}

// Metrics is the Collector's aggregate view, shaped for Prometheus
// exposition: per-phase and whole-step duration histograms plus the
// counter gauges/totals.
type Metrics struct {
	Steps    uint64 // records published
	Step     Histogram
	Phases   [NumPhases]Histogram
	Counters [NumCounters]int64
}

// Collector is the default Probe sink: it assembles one StepRecord per
// step and publishes finished records into a lock-free ring (atomic
// pointer slots plus an atomic cursor — the step loop never takes a
// lock), while folding durations into atomic histograms.
//
// Writer side: the engine's stepping goroutine. Reader side: any
// goroutine, via Metrics and Recent — readers validate each slot's Seq, so
// a concurrent overwrite skips the slot instead of yielding a torn record.
type Collector struct {
	epoch  time.Time
	ring   []atomic.Pointer[StepRecord]
	cursor atomic.Uint64

	// Current-step scratch (stepping goroutine only).
	cur       StepRecord
	stepBegin int64
	phaseBeg  [NumPhases]int64

	stepHist  hist
	phaseHist [NumPhases]hist
	totals    [NumCounters]atomic.Int64
}

var _ Probe = (*Collector)(nil)

// NewCollector builds a collector retaining the most recent ringSize
// step records (default 512 when <= 0).
func NewCollector(ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = 512
	}
	return &Collector{
		epoch: time.Now(),
		ring:  make([]atomic.Pointer[StepRecord], ringSize),
	}
}

func (c *Collector) nowNs() int64 { return int64(time.Since(c.epoch)) }

// BeginStep implements Probe.
func (c *Collector) BeginStep(step int) {
	c.stepBegin = c.nowNs()
	c.cur.Step = step
}

// PhaseBegin implements Probe.
func (c *Collector) PhaseBegin(p Phase) {
	if p < NumPhases {
		c.phaseBeg[p] = c.nowNs()
	}
}

// PhaseEnd implements Probe.
func (c *Collector) PhaseEnd(p Phase) {
	if p >= NumPhases {
		return
	}
	now := c.nowNs()
	d := now - c.phaseBeg[p]
	c.cur.Phases[p] = PhaseSpan{BeginNs: c.phaseBeg[p], DurNs: d, Ok: true}
	c.phaseHist[p].observe(d)
}

// Counter implements Probe.
func (c *Collector) Counter(ctr Counter, v int64) {
	if ctr >= NumCounters {
		return
	}
	if ctr.Cumulative() {
		c.totals[ctr].Add(v)
		c.cur.Counters[ctr] += v
	} else {
		c.totals[ctr].Store(v)
		c.cur.Counters[ctr] = v
	}
	c.cur.CounterSeen[ctr] = true
}

// EndStep implements Probe: the assembled record is published into the
// ring and the scratch reset for the next step.
func (c *Collector) EndStep(step int, changed bool) {
	now := c.nowNs()
	c.cur.Step = step
	c.cur.Changed = changed
	c.cur.BeginNs = c.stepBegin
	c.cur.DurNs = now - c.stepBegin
	c.stepHist.observe(c.cur.DurNs)

	seq := c.cursor.Load()
	rec := new(StepRecord)
	*rec = c.cur
	rec.Seq = seq
	c.ring[seq%uint64(len(c.ring))].Store(rec)
	c.cursor.Add(1)
	c.cur = StepRecord{}
}

// Metrics returns the aggregate histograms and counters.
func (c *Collector) Metrics() Metrics {
	m := Metrics{
		Steps: c.cursor.Load(),
		Step:  c.stepHist.snapshot(),
	}
	for p := Phase(0); p < NumPhases; p++ {
		m.Phases[p] = c.phaseHist[p].snapshot()
	}
	for ctr := Counter(0); ctr < NumCounters; ctr++ {
		m.Counters[ctr] = c.totals[ctr].Load()
	}
	return m
}

// Recent returns up to max of the most recently published step records,
// oldest first (0 or negative: the whole ring). Slots overwritten while
// reading are skipped, never torn.
func (c *Collector) Recent(max int) []StepRecord {
	n := c.cursor.Load()
	size := uint64(len(c.ring))
	if max <= 0 || uint64(max) > size {
		max = int(size)
	}
	from := uint64(0)
	if n > uint64(max) {
		from = n - uint64(max)
	}
	out := make([]StepRecord, 0, n-from)
	for i := from; i < n; i++ {
		rec := c.ring[i%size].Load()
		if rec == nil || rec.Seq != i {
			continue // lapped by the writer mid-read
		}
		out = append(out, *rec)
	}
	return out
}
