package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"selfstab"
	"selfstab/internal/obs"
)

// handleMetrics renders the world's counters in Prometheus text
// exposition format. Population and step counters are O(1); the traffic
// and energy blocks appear only when the subsystem is attached; the
// phase histograms and probe counters come from the attached collector's
// atomic totals, never the world. The ledgers are copied under the write
// lock (not the read lock) because the convergence block reads the
// disruption ledger, which may close an open episode — a mutation; the
// text is rendered from the copies after the unlock.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var (
		step, alive, sleeping, dead int
		cs                          selfstab.ConvergenceStats
		ts                          selfstab.TrafficStats
		es                          selfstab.EnergyStats
		tsErr, esErr                error
	)
	s.update(func(net *selfstab.Network) {
		step = net.StepCount()
		alive, sleeping, dead = net.Population()
		cs = net.ConvergenceStats()
		ts, tsErr = net.TrafficStats()
		es, esErr = net.EnergyStats()
	})
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP selfstab_step_count Completed protocol steps.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_step_count counter\n")
	fmt.Fprintf(&b, "selfstab_step_count %d\n", step)
	fmt.Fprintf(&b, "# HELP selfstab_ticks_dropped_total Stepper ticks lost because the previous step (or a lock holder) overran the interval.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_ticks_dropped_total counter\n")
	fmt.Fprintf(&b, "selfstab_ticks_dropped_total %d\n", s.ticksDropped.Load())
	fmt.Fprintf(&b, "# HELP selfstab_nodes Node slots by lifecycle status.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_nodes gauge\n")
	fmt.Fprintf(&b, "selfstab_nodes{status=\"alive\"} %d\n", alive)
	fmt.Fprintf(&b, "selfstab_nodes{status=\"sleeping\"} %d\n", sleeping)
	fmt.Fprintf(&b, "selfstab_nodes{status=\"dead\"} %d\n", dead)

	fmt.Fprintf(&b, "# HELP selfstab_convergence_episodes_total Disruption episodes recorded in the ledger.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_convergence_episodes_total counter\n")
	fmt.Fprintf(&b, "selfstab_convergence_episodes_total %d\n", len(cs.Disruptions))
	open := 0
	if cs.Open {
		open = 1
	}
	fmt.Fprintf(&b, "# HELP selfstab_convergence_open Whether a disruption episode is currently open.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_convergence_open gauge\n")
	fmt.Fprintf(&b, "selfstab_convergence_open %d\n", open)
	fmt.Fprintf(&b, "# HELP selfstab_convergence_steps_to_restabilize Steps from disruption to restabilization over closed episodes.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_convergence_steps_to_restabilize gauge\n")
	fmt.Fprintf(&b, "selfstab_convergence_steps_to_restabilize{stat=\"mean\"} %g\n", cs.MeanStepsToStabilize)
	fmt.Fprintf(&b, "selfstab_convergence_steps_to_restabilize{stat=\"max\"} %d\n", cs.MaxStepsToStabilize)
	fmt.Fprintf(&b, "# HELP selfstab_convergence_affected_nodes_mean Mean nodes whose state churned per episode.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_convergence_affected_nodes_mean gauge\n")
	fmt.Fprintf(&b, "selfstab_convergence_affected_nodes_mean %g\n", cs.MeanAffectedNodes)
	fmt.Fprintf(&b, "# HELP selfstab_convergence_affected_radius Hop radius of the perturbation around each disruption.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_convergence_affected_radius gauge\n")
	fmt.Fprintf(&b, "selfstab_convergence_affected_radius{stat=\"mean\"} %g\n", cs.MeanAffectedRadius)
	fmt.Fprintf(&b, "selfstab_convergence_affected_radius{stat=\"max\"} %d\n", cs.MaxAffectedRadius)

	if tsErr == nil {
		fmt.Fprintf(&b, "# HELP selfstab_traffic_packets_total Data-plane packet counters by fate.\n")
		fmt.Fprintf(&b, "# TYPE selfstab_traffic_packets_total counter\n")
		fmt.Fprintf(&b, "selfstab_traffic_packets_total{fate=\"offered\"} %d\n", ts.Offered)
		fmt.Fprintf(&b, "selfstab_traffic_packets_total{fate=\"delivered\"} %d\n", ts.Delivered)
		fmt.Fprintf(&b, "selfstab_traffic_packets_total{fate=\"dropped_queue\"} %d\n", ts.DropsQueue)
		fmt.Fprintf(&b, "selfstab_traffic_packets_total{fate=\"dropped_noroute\"} %d\n", ts.DropsNoRoute)
		fmt.Fprintf(&b, "selfstab_traffic_packets_total{fate=\"dropped_ttl\"} %d\n", ts.DropsTTL)
		fmt.Fprintf(&b, "selfstab_traffic_packets_total{fate=\"dropped_dead_endpoint\"} %d\n", ts.DropsDeadEndpoint)
		fmt.Fprintf(&b, "selfstab_traffic_packets_total{fate=\"dropped_admission\"} %d\n", ts.DropsAdmission)
		fmt.Fprintf(&b, "selfstab_traffic_packets_total{fate=\"dropped_ratelimit\"} %d\n", ts.DropsRateLimit)
		fmt.Fprintf(&b, "# HELP selfstab_traffic_in_flight Packets currently queued.\n")
		fmt.Fprintf(&b, "# TYPE selfstab_traffic_in_flight gauge\n")
		fmt.Fprintf(&b, "selfstab_traffic_in_flight %d\n", ts.InFlight)
		fmt.Fprintf(&b, "# HELP selfstab_traffic_delivery_ratio Delivered over decided-fate packets.\n")
		fmt.Fprintf(&b, "# TYPE selfstab_traffic_delivery_ratio gauge\n")
		fmt.Fprintf(&b, "selfstab_traffic_delivery_ratio %g\n", ts.DeliveryRatio)
	}

	if esErr == nil {
		fmt.Fprintf(&b, "# HELP selfstab_energy_drain_total Energy drained by cause.\n")
		fmt.Fprintf(&b, "# TYPE selfstab_energy_drain_total counter\n")
		fmt.Fprintf(&b, "selfstab_energy_drain_total{cause=\"head\"} %g\n", es.DrainHead)
		fmt.Fprintf(&b, "selfstab_energy_drain_total{cause=\"member\"} %g\n", es.DrainMember)
		fmt.Fprintf(&b, "selfstab_energy_drain_total{cause=\"sleep\"} %g\n", es.DrainSleep)
		fmt.Fprintf(&b, "selfstab_energy_drain_total{cause=\"tx\"} %g\n", es.DrainTx)
		fmt.Fprintf(&b, "selfstab_energy_drain_total{cause=\"rx\"} %g\n", es.DrainRx)
		fmt.Fprintf(&b, "# HELP selfstab_energy_depletions_total Batteries that crossed zero.\n")
		fmt.Fprintf(&b, "# TYPE selfstab_energy_depletions_total counter\n")
		fmt.Fprintf(&b, "selfstab_energy_depletions_total %d\n", es.Depletions)
		fmt.Fprintf(&b, "# HELP selfstab_energy_mean_remaining Mean remaining battery fraction.\n")
		fmt.Fprintf(&b, "# TYPE selfstab_energy_mean_remaining gauge\n")
		fmt.Fprintf(&b, "selfstab_energy_mean_remaining %g\n", es.MeanRemaining)
	}

	fmt.Fprintf(&b, "# HELP selfstab_sse_published_frames_total Step frames encoded and offered to SSE subscribers.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_sse_published_frames_total counter\n")
	fmt.Fprintf(&b, "selfstab_sse_published_frames_total %d\n", s.hub.publishedFrames())
	fmt.Fprintf(&b, "# HELP selfstab_sse_dropped_frames_total Step frames dropped on full SSE subscriber buffers.\n")
	fmt.Fprintf(&b, "# TYPE selfstab_sse_dropped_frames_total counter\n")
	fmt.Fprintf(&b, "selfstab_sse_dropped_frames_total %d\n", s.hub.droppedFrames())

	writeProbeMetrics(&b, s.collector.Metrics())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, b.String()) // a failed write means the client left
}

// writeProbeMetrics renders the collector's step/phase duration
// histograms and engine counters. All values come from the collector's
// atomic totals, so this block is world-lock-free by construction.
func writeProbeMetrics(b *strings.Builder, m obs.Metrics) {
	fmt.Fprintf(b, "# HELP selfstab_step_duration_seconds Wall time per engine step.\n")
	fmt.Fprintf(b, "# TYPE selfstab_step_duration_seconds histogram\n")
	writeHistogram(b, "selfstab_step_duration_seconds", "", m.Step)
	fmt.Fprintf(b, "# HELP selfstab_phase_duration_seconds Wall time per step phase.\n")
	fmt.Fprintf(b, "# TYPE selfstab_phase_duration_seconds histogram\n")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if m.Phases[p].Count == 0 {
			continue // phase never ran (e.g. no data plane → no traffic)
		}
		writeHistogram(b, "selfstab_phase_duration_seconds",
			fmt.Sprintf("phase=%q", p.String()), m.Phases[p])
	}
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		name, typ := "selfstab_engine_"+c.String(), "gauge"
		if c.Cumulative() {
			name, typ = name+"_total", "counter"
		}
		fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
		fmt.Fprintf(b, "%s %d\n", name, m.Counters[c])
	}
}

// writeHistogram renders one Prometheus histogram (cumulative buckets,
// seconds) from the collector's nanosecond bucket counts. labels is
// either empty or a single rendered pair like `phase="halo"`.
func writeHistogram(b *strings.Builder, name, labels string, h obs.Histogram) {
	sep := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	cum := int64(0)
	for i, bound := range h.BoundsNs {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			sep(fmt.Sprintf("le=%q", formatSeconds(bound))), cum)
	}
	cum += h.Counts[len(h.BoundsNs)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, sep(`le="+Inf"`), cum)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, sep(""), float64(h.SumNs)/1e9)
	fmt.Fprintf(b, "%s_count%s %d\n", name, sep(""), h.Count)
}

// formatSeconds renders a nanosecond bound as a seconds string without
// float artifacts (25000 → "0.000025").
func formatSeconds(ns int64) string {
	return fmt.Sprintf("%g", float64(ns)/1e9)
}
