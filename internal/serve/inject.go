package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strings"

	"selfstab"
)

// injectRequest is the POST /inject body. It is either a journal op —
// selfstab.Op, the record WriteSnapshot writes and ReadSnapshot replays —
// applied as sent through Network.Apply:
//
//	{"kind":"inject_faults","frac":0.3}
//	{"kind":"crash_nodes","ids":[4,17]}   also sleep_nodes, wake_nodes, remove_nodes
//	{"kind":"add_nodes","points":[{"x":0.2,"y":0.8}]}
//	{"kind":"spawn_flows","traffic":{"flows":[{"kind":"cbr","src":1,"dst":2,"rate":0.5}]}}
//	{"kind":"set_defense","defense":{"head_tokens":true,"head_rate":1,"head_burst":4,"source_cap":3}}
//	{"kind":"compact"}
//
// or an intent, which needs the live world and resolves under the lock
// into explicit ops before anything is journaled, so a restored snapshot
// replays the same casualties without the server in the loop:
//
//	{"kind":"crash_region","x":0.5,"y":0.5,"radius":0.1}   also sleep_region
//	{"kind":"churn_burst","count":10,"op":"crash"}         op: crash|sleep|remove
//	{"kind":"flood","count":5,"rate":2}                    count bots flood the heads
//	{"kind":"byzantine","ids":[4,17],"scale":4}            inflate advertised densities
//	{"kind":"evict","ids":[4]}                             expel byzantine nodes
//	{"kind":"evict","factor":1.1}                          ...or auto-detect implausible ones
//	{"kind":"sybil","target":9,"count":8,"spread":0.05}
//
// The adversarial intents go through the attack calls, which also count
// the attack. A body that sets a field its kind does not read, step
// included, is refused (400): Apply would otherwise journal it.
type injectRequest struct {
	selfstab.Op
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
	Count  int     `json:"count"`
	Burst  string  `json:"op"` // churn_burst
	Rate   float64 `json:"rate"`
	Factor float64 `json:"factor"`
	Target int64   `json:"target"`
	Spread float64 `json:"spread"`
}

// injectReads names the body fields each kind reads besides its kind; a
// kind not listed here is refused.
var injectReads = map[string][]string{
	// Journal kinds.
	"inject_faults": {"frac"},
	"crash_nodes":   {"ids"},
	"sleep_nodes":   {"ids"},
	"wake_nodes":    {"ids"},
	"remove_nodes":  {"ids"},
	"add_nodes":     {"points"},
	"spawn_flows":   {"traffic"},
	"set_defense":   {"defense"},
	"compact":       nil,
	// Intents.
	"crash_region": {"x", "y", "radius"},
	"sleep_region": {"x", "y", "radius"},
	"churn_burst":  {"count", "op"},
	"flood":        {"count", "rate"},
	"byzantine":    {"ids", "scale"},
	"evict":        {"ids", "factor"},
	"sybil":        {"target", "count", "spread"},
}

// maxInjectBody caps a POST /inject body. The largest legitimate request,
// an add_nodes batch, spends under 40 bytes a point, so this still admits
// tens of thousands of nodes in one call.
const maxInjectBody = 1 << 20

// maxInjectNodes caps how many nodes or flows one inject may create: a
// sybil count, an add_nodes point count, a flood's bot count, or a
// spawn_flows op's flows, a hotspot counting once per source. A sybil
// count costs no body bytes, and a 1 MiB spawn_flows body holds some
// 17 000 hotspots of 20 000 sources at a negligible total rate; the world
// would size its arrays for them under the write lock while every reader
// waits, and every later step would walk them, so the count is refused
// (422) before the lock.
const maxInjectNodes = 10000

// maxInjectRate caps the packets a step one inject may offer: the sum
// over a spawn_flows op's flows of rate times its hotspot sources (a
// hotspot offers rate per source), or a flood's count times its rate.
// Each offered packet is an injection made under the write lock in every
// later step, so a rate of 1e12 stalls the service, one of 1e300
// overflows the CBR credit, 5 000 bots at 1 000 each made a 20 000-node
// world's steps some 300 times slower (2 vCPU), and so did one hotspot of
// 19 999 sources at 1 000 each; the load is refused (422) before the
// lock. The cap is over fifteen times the default queue capacity (64),
// so no single flow a queue could absorb is refused.
const maxInjectRate = 1000

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxInjectBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "inject body over %d bytes", maxInjectBody)
			return
		}
		writeError(w, http.StatusBadRequest, "bad inject body: %v", err)
		return
	}
	req, err := decodeInject(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if n, rate := injectLoad(req); n > maxInjectNodes || rate > maxInjectRate {
		writeError(w, http.StatusUnprocessableEntity, "%s would create %d nodes or flows and offer %v packets a step, over %d or %d",
			req.Kind, n, rate, maxInjectNodes, maxInjectRate)
		return
	}
	var affected, step int
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

// decodeInject decodes one inject body and refuses, before the lock, an
// unknown kind, a field the kind does not read and a fault fraction over
// 1 (which InjectFaults would clamp).
func decodeInject(body []byte) (injectRequest, error) {
	var req injectRequest
	var fields map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := json.Unmarshal(body, &fields)
	if err == nil {
		err = dec.Decode(&req)
	}
	if err != nil {
		return req, errf("bad inject body: %v", err)
	}
	reads, ok := injectReads[req.Kind]
	if !ok {
		return req, errf("unknown inject kind %q", req.Kind)
	}
	for _, f := range slices.Sorted(maps.Keys(fields)) {
		if f != "kind" && !slices.Contains(reads, f) {
			return req, errf("%s does not read %q", req.Kind, f)
		}
	}
	if t := req.Traffic; t != nil && !reflect.DeepEqual(*t, selfstab.TrafficConfig{Flows: t.Flows}) {
		return req, errf("spawn_flows reads only the flows of its traffic config")
	}
	if req.Kind == "inject_faults" && req.Frac > 1 {
		return req, errf("inject_faults frac %v over 1", req.Frac)
	}
	return req, nil
}

// injectLoad returns how many nodes or flows req would create and how
// many packets a step it would offer over all its flows.
func injectLoad(req injectRequest) (created int, rate float64) {
	switch {
	case req.Kind == "sybil":
		return req.Count, 0
	case req.Kind == "add_nodes":
		return len(req.Points), 0
	case req.Kind == "flood":
		return req.Count, float64(req.Count) * req.Rate
	case req.Kind == "spawn_flows" && req.Traffic != nil:
		for _, f := range req.Traffic.Flows {
			// Clamped so a huge hotspot_sources cannot overflow the sum.
			sources := min(max(1, f.HotspotSources), maxInjectNodes+1)
			created += sources
			rate += float64(f.Rate * float64(sources))
		}
	}
	return created, rate
}

// applyInjectLocked performs one injection under the write lock and
// returns how many nodes (for spawn_flows, flows) it touched.
func (s *Server) applyInjectLocked(req injectRequest) (int, error) {
	switch req.Kind {
	case "crash_region", "sleep_region":
		if req.Radius <= 0 {
			return 0, errf("region radius %v must be positive", req.Radius)
		}
		ids, err := s.aliveLocked(s.net.N(), func(p selfstab.Point) bool {
			dx, dy := p.X-req.X, p.Y-req.Y
			return float64(dx*dx)+float64(dy*dy) <= req.Radius*req.Radius
		})
		if err != nil || len(ids) == 0 {
			return 0, err
		}
		kind := strings.TrimSuffix(req.Kind, "_region") + "_nodes"
		return len(ids), s.net.Apply(selfstab.Op{Kind: kind, IDs: ids})
	case "churn_burst":
		// The first count alive nodes in index order: deterministic, so
		// the journaled id list is reproducible from the request alone.
		// Apply refuses the empty list a count <= 0 or a dead world gives.
		kind, ok := burstKinds[req.Burst]
		if !ok {
			return 0, errf("unknown churn burst op %q (want crash, sleep or remove)", req.Burst)
		}
		ids, err := s.aliveLocked(req.Count, func(selfstab.Point) bool { return true })
		if err != nil {
			return 0, err
		}
		return len(ids), s.net.Apply(selfstab.Op{Kind: kind, IDs: ids})
	case "flood":
		bots, err := s.net.FloodHeads(req.Count, req.Rate)
		return len(bots), err
	case "byzantine":
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
	}
	// A journal op, applied as sent.
	before := s.net.N()
	if err := s.net.Apply(req.Op); err != nil {
		return 0, err
	}
	switch req.Kind {
	case "inject_faults":
		return s.net.N(), nil
	case "compact":
		return before - s.net.N(), nil
	case "spawn_flows":
		return len(req.Traffic.Flows), nil
	}
	return len(req.IDs) + len(req.Points), nil
}

// burstKinds maps a churn_burst op to the journal kind it resolves to.
var burstKinds = map[string]string{"crash": "crash_nodes", "sleep": "sleep_nodes", "remove": "remove_nodes"}

// aliveLocked resolves an intent's victims into the explicit id list that
// gets journaled: the first limit alive nodes, in index order, whose
// position in accepts.
func (s *Server) aliveLocked(limit int, in func(selfstab.Point) bool) ([]int64, error) {
	var ids []int64
	for i := 0; i < s.net.N() && len(ids) < limit; i++ {
		st, err := s.net.State(i)
		if err != nil {
			return nil, err
		}
		if st.Status == selfstab.NodeAlive && in(st.Position) {
			ids = append(ids, st.ID)
		}
	}
	return ids, nil
}

func errf(format string, a ...any) error {
	return fmt.Errorf("serve: "+format, a...)
}
