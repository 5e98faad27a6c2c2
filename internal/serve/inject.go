package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"selfstab"
)

// injectRequest is the POST /inject body. Kind selects the scenario;
// the other fields parameterize it:
//
//	{"kind":"faults","frac":0.3}
//	{"kind":"crash","ids":[4,17]}            also sleep, wake, remove
//	{"kind":"crash_region","x":0.5,"y":0.5,"radius":0.1}   also sleep_region
//	{"kind":"churn_burst","count":10,"op":"crash"}         op: crash|sleep|remove
//	{"kind":"add_nodes","points":[{"x":0.2,"y":0.8}]}
//	{"kind":"spawn_flow","flow":{"kind":"cbr","src":1,"dst":2,"rate":0.5}}
//	{"kind":"compact"}
//
// Adversarial kinds (the attack plane):
//
//	{"kind":"flood","count":5,"rate":2}            count bots flood the heads
//	{"kind":"byzantine","ids":[4,17],"scale":4}    inflate advertised densities
//	{"kind":"evict","ids":[4]}                     expel byzantine nodes
//	{"kind":"evict","factor":1.1}                  ...or auto-detect implausible ones
//	{"kind":"sybil","target":9,"count":8,"spread":0.05}
//	{"kind":"defense","defense":{"head_admission":true,"head_rate":1,"head_burst":4,"source_cap":3}}
//
// Region and burst injections resolve their victims server-side into an
// explicit id list before journaling, so a restored snapshot replays the
// exact same casualties without the server in the loop; flood and the
// id-less evict resolve against the live hierarchy the same way.
type injectRequest struct {
	Kind    string           `json:"kind"`
	Frac    float64          `json:"frac,omitempty"`
	IDs     []int64          `json:"ids,omitempty"`
	X       float64          `json:"x,omitempty"`
	Y       float64          `json:"y,omitempty"`
	Radius  float64          `json:"radius,omitempty"`
	Count   int              `json:"count,omitempty"`
	Op      string           `json:"op,omitempty"`
	Points  []selfstab.Point `json:"points,omitempty"`
	Flow    *flowRequest     `json:"flow,omitempty"`
	Rate    float64          `json:"rate,omitempty"`    // flood
	Scale   float64          `json:"scale,omitempty"`   // byzantine
	Factor  float64          `json:"factor,omitempty"`  // evict (auto-detect)
	Target  int64            `json:"target,omitempty"`  // sybil
	Spread  float64          `json:"spread,omitempty"`  // sybil
	Defense *defenseRequest  `json:"defense,omitempty"` // defense
}

// defenseRequest is selfstab.DefenseConfig under this API's wire names —
// field for field, so a request converts to the config — which differ
// from the snapshot journal's in one place: head_admission here is
// head_tokens there. A zero-valued (or empty) object removes every
// installed defense.
type defenseRequest struct {
	HeadAdmission bool    `json:"head_admission,omitempty"`
	HeadRate      float64 `json:"head_rate,omitempty"`
	HeadBurst     float64 `json:"head_burst,omitempty"`
	SourceCap     int     `json:"source_cap,omitempty"`
}

// flowRequest describes one flow for spawn_flow under this API's wire
// names, which differ from the snapshot journal's: kind "hotspot" (the
// journal has hotspot_sources on a poisson flow) uses Dst as the sink
// and Sources as the fan-in.
type flowRequest struct {
	Kind    string  `json:"kind"` // "cbr", "poisson" or "hotspot"
	Src     int64   `json:"src,omitempty"`
	Dst     int64   `json:"dst"`
	Rate    float64 `json:"rate"`
	Sources int     `json:"sources,omitempty"`
}

// maxInjectBody caps a POST /inject body. The largest legitimate request,
// an add_nodes batch, spends under 40 bytes a point, so this still admits
// tens of thousands of nodes in one call.
const maxInjectBody = 1 << 20

// maxInjectNodes caps how many nodes one inject may create: a sybil
// count, or an add_nodes point count. A sybil count costs no body bytes,
// and the world would size its arrays for it under the write lock while
// every reader waits, so the count is refused (422) before the lock.
const maxInjectNodes = 10000

// maxInjectRate caps the packets a step one flow may offer, the rate of a
// flood or spawn_flow. Each offered packet is an injection made under
// the write lock in every later step, so a rate of 1e12 stalls the
// service and one of 1e300 overflows the CBR credit; the rate is refused
// (422) before the lock. The cap is over fifteen times the default queue
// capacity (64), so no rate a queue could absorb is refused.
const maxInjectRate = 1000

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	var req injectRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInjectBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "inject body over %d bytes", maxInjectBody)
			return
		}
		writeError(w, http.StatusBadRequest, "bad inject body: %v", err)
		return
	}
	if n := injectNodes(req); n > maxInjectNodes {
		writeError(w, http.StatusUnprocessableEntity, "%s would create %d nodes, over %d", req.Kind, n, maxInjectNodes)
		return
	}
	if r := injectRate(req); r > maxInjectRate {
		writeError(w, http.StatusUnprocessableEntity, "%s rate %v over %d packets a step", req.Kind, r, maxInjectRate)
		return
	}
	var (
		affected, step int
		err            error
	)
	s.update(func(net *selfstab.Network) {
		affected, err = s.applyInjectLocked(req)
		step = net.StepCount()
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"kind": req.Kind, "step": step, "affected": affected})
}

// injectNodes returns how many nodes req would create.
func injectNodes(req injectRequest) int {
	switch req.Kind {
	case "sybil":
		return req.Count
	case "add_nodes":
		return len(req.Points)
	}
	return 0
}

// injectRate returns the flow rate req asks for (0 when none).
func injectRate(req injectRequest) float64 {
	switch {
	case req.Kind == "flood":
		return req.Rate
	case req.Kind == "spawn_flow" && req.Flow != nil:
		return req.Flow.Rate
	}
	return 0
}

// applyInjectLocked performs one injection under the write lock and
// returns how many nodes it touched.
func (s *Server) applyInjectLocked(req injectRequest) (int, error) {
	switch req.Kind {
	case "faults":
		if req.Frac <= 0 || req.Frac > 1 {
			return 0, errf("faults frac %v outside (0, 1]", req.Frac)
		}
		s.net.InjectFaults(req.Frac)
		return s.net.N(), nil
	case "crash":
		return len(req.IDs), s.net.CrashNodes(req.IDs...)
	case "sleep":
		return len(req.IDs), s.net.SleepNodes(req.IDs...)
	case "wake":
		return len(req.IDs), s.net.WakeNodes(req.IDs...)
	case "remove":
		return len(req.IDs), s.net.RemoveNodes(req.IDs...)
	case "crash_region":
		ids, err := s.aliveInRegionLocked(req.X, req.Y, req.Radius)
		if err != nil || len(ids) == 0 {
			return 0, err
		}
		return len(ids), s.net.CrashNodes(ids...)
	case "sleep_region":
		ids, err := s.aliveInRegionLocked(req.X, req.Y, req.Radius)
		if err != nil || len(ids) == 0 {
			return 0, err
		}
		return len(ids), s.net.SleepNodes(ids...)
	case "churn_burst":
		return s.churnBurstLocked(req.Count, req.Op)
	case "add_nodes":
		_, err := s.net.AddNodes(req.Points)
		return len(req.Points), err
	case "spawn_flow":
		return s.spawnFlowLocked(req.Flow)
	case "compact":
		removed, err := s.net.Compact()
		return removed, err
	case "flood":
		bots, err := s.net.FloodHeads(req.Count, req.Rate)
		return len(bots), err
	case "byzantine":
		if req.Scale == 0 {
			return 0, errf("byzantine inject needs a scale")
		}
		return len(req.IDs), s.net.InflateDensity(req.Scale, req.IDs...)
	case "evict":
		ids := req.IDs
		if len(ids) == 0 {
			if req.Factor <= 0 {
				return 0, errf("evict needs ids or a detection factor > 0")
			}
			if ids = s.net.ImplausibleNodes(req.Factor); len(ids) == 0 {
				return 0, nil // nothing implausible: a clean bill, not an error
			}
		}
		return len(ids), s.net.EvictNodes(ids...)
	case "sybil":
		ids, err := s.net.SybilJoin(req.Target, req.Count, req.Spread)
		return len(ids), err
	case "defense":
		if req.Defense == nil {
			return 0, errf("defense inject without a defense object")
		}
		return 0, s.net.SetTrafficDefense(selfstab.DefenseConfig(*req.Defense))
	}
	return 0, errf("unknown inject kind %q", req.Kind)
}

// aliveInRegionLocked resolves the alive nodes within radius of (x, y)
// into an id list — the explicit form that gets journaled.
func (s *Server) aliveInRegionLocked(x, y, radius float64) ([]int64, error) {
	if radius <= 0 {
		return nil, errf("region radius %v must be positive", radius)
	}
	var ids []int64
	r2 := radius * radius
	for i := 0; i < s.net.N(); i++ {
		st, err := s.net.State(i)
		if err != nil {
			return nil, err
		}
		if st.Status != selfstab.NodeAlive {
			continue
		}
		dx, dy := st.Position.X-x, st.Position.Y-y
		if dx*dx+dy*dy <= r2 {
			ids = append(ids, st.ID)
		}
	}
	return ids, nil
}

// churnBurstLocked applies op to the first count alive nodes in index
// order — deterministic, so the journaled id list is reproducible from
// the request alone.
func (s *Server) churnBurstLocked(count int, op string) (int, error) {
	if count <= 0 {
		return 0, errf("churn burst count %d must be positive", count)
	}
	var ids []int64
	for i := 0; i < s.net.N() && len(ids) < count; i++ {
		st, err := s.net.State(i)
		if err != nil {
			return 0, err
		}
		if st.Status == selfstab.NodeAlive {
			ids = append(ids, st.ID)
		}
	}
	if len(ids) == 0 {
		return 0, errf("no alive nodes for a churn burst")
	}
	switch op {
	case "crash":
		return len(ids), s.net.CrashNodes(ids...)
	case "sleep":
		return len(ids), s.net.SleepNodes(ids...)
	case "remove":
		return len(ids), s.net.RemoveNodes(ids...)
	}
	return 0, errf("unknown churn burst op %q (want crash, sleep or remove)", op)
}

// spawnFlowLocked appends one flow to the attached data plane via
// Network.SpawnFlows: the traffic ledger and queues carry over, so
// scraped counters stay continuous across the spawn (until the attack
// plane landed, this re-attached and reset the ledger).
func (s *Server) spawnFlowLocked(fr *flowRequest) (int, error) {
	if fr == nil {
		return 0, errf("spawn_flow without a flow")
	}
	var flow selfstab.Flow
	switch fr.Kind {
	case "cbr":
		flow = selfstab.CBRFlow(fr.Src, fr.Dst, fr.Rate)
	case "poisson":
		flow = selfstab.PoissonFlow(fr.Src, fr.Dst, fr.Rate)
	case "hotspot":
		if fr.Sources <= 0 {
			return 0, errf("hotspot flow needs sources > 0")
		}
		flow = selfstab.HotspotFlow(fr.Dst, fr.Sources, fr.Rate)
	default:
		return 0, errf("unknown flow kind %q (want cbr, poisson or hotspot)", fr.Kind)
	}
	if err := s.net.SpawnFlows(flow); err != nil {
		return 0, err
	}
	return 1, nil
}

func errf(format string, a ...any) error {
	return fmt.Errorf("serve: "+format, a...)
}
