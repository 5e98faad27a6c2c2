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

// FlowStats is the per-flow slice of the ledger. It names the flow's
// endpoints by identifier (FlowSpec.SrcID, DstID), so it stays
// addressable across compactions.
type FlowStats struct {
	SrcID, DstID int64
	Offered      int64
	Delivered    int64
	Dropped      int64
}

// Stats is the data plane's ledger at a point in time; the root package
// exports it as TrafficStats. The accounting identity Offered ==
// Delivered + DropsQueue + DropsNoRoute + DropsTTL + DropsDeadEndpoint +
// DropsAdmission + DropsRateLimit + InFlight holds at every step
// boundary.
type Stats struct {
	// Steps is how many steps the data plane itself has run (steps taken
	// since AttachTraffic, excluding any detached stretches) — the right
	// denominator for per-step rates regardless of how long stabilization
	// took before attach.
	Steps int

	Offered   int64
	Delivered int64
	InFlight  int64

	DropsQueue   int64 // queue overflow (either discipline)
	DropsNoRoute int64 // routing had no next hop (partition or transient assignment)
	DropsTTL     int64 // hop budget exceeded
	// DropsDeadEndpoint counts packets addressed to a dead or sleeping
	// node — at injection or discovered mid-flight — plus packets lost
	// with the queue of a crashed or removed node. Under churn the data
	// plane never errors on a vanished endpoint; it accounts it here.
	DropsDeadEndpoint int64
	// DropsAdmission and DropsRateLimit are the defense drops (see
	// Defense and SetTrafficDefense): packets a head's token bucket
	// refused, and packets the per-source injection cap refused. Kept
	// separate from the congestion reasons above so the attack-vs-defense
	// delta is directly measurable from the ledger.
	DropsAdmission int64
	DropsRateLimit int64

	// DeliveryRatio is Delivered over packets with a decided fate
	// (Offered - InFlight).
	DeliveryRatio float64

	// MeanHops is the mean hop count of delivered packets; MeanStretch is
	// the mean over delivered packets of hops / flat distance, where the
	// flat distance is the shortest-path hop count from the flow's source
	// to its destination on the topology at delivery (see Hooks.Dist) —
	// the path-stretch cost of the hierarchy. A delivered packet has no
	// sample when it took no hop (a self-flow) or when its source is
	// asleep, dead or cut off from the destination by then. Under the
	// churn of the mixed benchmark workload that is under 1 % of
	// deliveries (9 of 1 295 at seed 1, 6 of 940 at seed 3).
	MeanHops    float64
	MeanStretch float64

	// End-to-end latency percentiles in steps over delivered packets
	// (-1 when nothing was delivered).
	LatencyP50 int
	LatencyP90 int
	LatencyP99 int
	LatencyMax int

	// MeanLoad and MaxLoad summarize per-node forwarding events.
	// HeadLoadShare is the fraction of all forwarding done by current
	// cluster-heads against HeadFraction, the fraction of nodes that are
	// heads — their gap is the hotspot the hierarchy concentrates on
	// heads and gateways.
	MeanLoad      float64
	MaxLoad       int64
	HeadLoadShare float64
	HeadFraction  float64

	PerFlow []FlowStats
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
	// MeanLoad, HeadFraction and the heads' load count the operating
	// population only: dead slots would dilute the baseline the
	// MaxLoad-vs-MeanLoad comparison rests on, and a dead slot's state is
	// reset to self-head and a sleeping node's frozen, so counting them
	// would inflate the head fraction under churn. Slots recycled by
	// Compact contribute through the retired carry so the ledger is
	// invariant across a compaction.
	total, headLoad := e.retiredLoad, int64(0)
	s.MaxLoad = e.retiredMaxLoad
	operating, heads := 0, 0
	for i, l := range e.load {
		total += l
		if l > s.MaxLoad {
			s.MaxLoad = l
		}
		if !e.alive(i) {
			continue
		}
		operating++
		if e.hooks.IsHead != nil && e.hooks.IsHead(i) {
			heads++
			headLoad += l
		}
	}
	if operating > 0 {
		s.MeanLoad = float64(total) / float64(operating)
		s.HeadFraction = float64(heads) / float64(operating)
	}
	if total > 0 {
		s.HeadLoadShare = float64(headLoad) / float64(total)
	}
	s.PerFlow = make([]FlowStats, len(e.flows))
	for i := range e.flows {
		f := &e.flows[i]
		s.PerFlow[i] = FlowStats{
			SrcID: f.spec.SrcID, DstID: f.spec.DstID,
			Offered: f.offered, Delivered: f.delivered, Dropped: f.dropped,
		}
	}
	return s
}
