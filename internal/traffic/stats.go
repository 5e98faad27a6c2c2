package traffic

// acc accumulates the running counters the hot path touches. Latencies go
// into a histogram indexed by step count, so percentile extraction at
// Stats time is exact and the steady-state step path never allocates
// (the histogram only grows to the maximum observed latency).
type acc struct {
	offered           int64
	delivered         int64
	dropsQueue        int64
	dropsNoRoute      int64
	dropsTTL          int64
	dropsDeadEndpoint int64
	dropsAdmission    int64
	dropsRateLimit    int64
	hopTotal          int64
	stretchSum        float64
	stretchCount      int64
	latHist           []int64
}

func (a *acc) observeLatency(l int) {
	if l < 0 {
		l = 0
	}
	for len(a.latHist) <= l {
		a.latHist = append(a.latHist, 0)
	}
	a.latHist[l]++
}

// percentile returns the smallest latency whose cumulative count reaches
// p (0 < p <= 1) of delivered packets; -1 when nothing was delivered.
func (a *acc) percentile(p float64) int {
	if a.delivered == 0 {
		return -1
	}
	threshold := int64(p * float64(a.delivered))
	if threshold < 1 {
		threshold = 1
	}
	cum := int64(0)
	for l, c := range a.latHist {
		cum += c
		if cum >= threshold {
			return l
		}
	}
	return len(a.latHist) - 1
}

// FlowStats is the per-flow slice of the ledger.
type FlowStats struct {
	Src, Dst  int
	Offered   int64
	Delivered int64
	Dropped   int64
}

// Stats is the data plane's ledger at a point in time. The accounting
// identity Offered == Delivered + DropsQueue + DropsNoRoute + DropsTTL +
// DropsDeadEndpoint + DropsAdmission + DropsRateLimit + InFlight holds
// at every step boundary.
type Stats struct {
	Steps int // steps the data plane itself has run (not the protocol's lifetime count)

	Offered   int64
	Delivered int64
	InFlight  int64

	DropsQueue   int64 // queue overflow (either discipline)
	DropsNoRoute int64 // routing had no next hop
	DropsTTL     int64 // hop budget exceeded
	// DropsDeadEndpoint counts packets addressed to a dead or sleeping
	// node (at injection or mid-flight) plus packets lost with the queue
	// of a crashed or departed node.
	DropsDeadEndpoint int64
	// DropsAdmission and DropsRateLimit are the defense drops (see
	// Defense): packets a head's token bucket refused, and packets the
	// per-source injection cap refused. Separate from the congestion
	// reasons above so an attack-vs-defense delta is measurable.
	DropsAdmission int64
	DropsRateLimit int64

	// DeliveryRatio is Delivered / (Offered - InFlight): the fraction of
	// packets with a decided fate that made it. 0 when nothing decided.
	DeliveryRatio float64

	// MeanHops averages hop counts over delivered packets.
	MeanHops float64
	// MeanStretch averages hops / flat distance over delivered packets —
	// the path-stretch cost of the hierarchy the paper's scalability
	// argument accepts. The flat distance is the shortest-path hop count
	// from the flow's source to its destination on the topology at
	// delivery (see Hooks.Dist). A packet has no sample when it took no
	// hop (a self-flow) or when no flat path exists at delivery: its
	// source is asleep, dead or cut off by then. 0 when nothing qualified.
	MeanStretch float64

	// Latency percentiles in steps over delivered packets (-1 when none).
	LatencyP50 int
	LatencyP90 int
	LatencyP99 int
	LatencyMax int

	// MeanLoad / MaxLoad summarize per-node forwarding events — MaxLoad
	// far above MeanLoad is the head/gateway hotspot the hierarchy
	// concentrates.
	MeanLoad float64
	MaxLoad  int64

	Flows []FlowStats
}

// Stats snapshots the ledger.
func (e *Engine) Stats() Stats {
	s := Stats{
		Steps:             e.stepsRun,
		Offered:           e.acc.offered,
		Delivered:         e.acc.delivered,
		InFlight:          e.InFlight(),
		DropsQueue:        e.acc.dropsQueue,
		DropsNoRoute:      e.acc.dropsNoRoute,
		DropsTTL:          e.acc.dropsTTL,
		DropsDeadEndpoint: e.acc.dropsDeadEndpoint,
		DropsAdmission:    e.acc.dropsAdmission,
		DropsRateLimit:    e.acc.dropsRateLimit,
		LatencyP50:        e.acc.percentile(0.50),
		LatencyP90:        e.acc.percentile(0.90),
		LatencyP99:        e.acc.percentile(0.99),
		LatencyMax:        -1,
	}
	if decided := s.Offered - s.InFlight; decided > 0 {
		s.DeliveryRatio = float64(s.Delivered) / float64(decided)
	}
	if s.Delivered > 0 {
		s.MeanHops = float64(e.acc.hopTotal) / float64(s.Delivered)
		for l := len(e.acc.latHist) - 1; l >= 0; l-- {
			if e.acc.latHist[l] > 0 {
				s.LatencyMax = l
				break
			}
		}
	}
	if e.acc.stretchCount > 0 {
		s.MeanStretch = e.acc.stretchSum / float64(e.acc.stretchCount)
	}
	// MeanLoad averages over the operating population: dead slots would
	// silently dilute the baseline the MaxLoad-vs-MeanLoad hotspot
	// comparison rests on. Slots recycled by Compact contribute through
	// the retired carry so the ledger is invariant across a compaction.
	total := e.retiredLoad
	s.MaxLoad = e.retiredMaxLoad
	operating := 0
	for i, l := range e.load {
		total += l
		if l > s.MaxLoad {
			s.MaxLoad = l
		}
		if e.alive(i) {
			operating++
		}
	}
	if operating > 0 {
		s.MeanLoad = float64(total) / float64(operating)
	}
	s.Flows = make([]FlowStats, len(e.flows))
	for i := range e.flows {
		f := &e.flows[i]
		s.Flows[i] = FlowStats{
			Src: f.spec.Src, Dst: f.spec.Dst,
			Offered: f.offered, Delivered: f.delivered, Dropped: f.dropped,
		}
	}
	return s
}
