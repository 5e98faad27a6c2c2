// Package serve runs a live selfstab simulation as a long-lived service:
// the world steps continuously in scaled real time on its own goroutine
// while an HTTP/JSON API serves cluster maps, per-node state and the
// convergence, traffic and energy ledgers, accepts online scenario
// injection (faults, regional crashes and sleeps, churn bursts, flow
// spawning, forced compaction), streams step frames over SSE, and
// exposes Prometheus-style text metrics.
//
// Consistency model: every read and every mutation happens at a step
// boundary. The stepper holds the world's write lock for the duration of
// each Δ(τ) step; query handlers take the read lock (so they observe a
// fully settled step, never a torn one, and scale with concurrent
// readers), while injections and ledger reads that may close a
// disruption episode take the write lock and serialize with stepping.
// Injections route through the same journaled op chokepoint as the
// embedding API, so a snapshot taken over HTTP replays bit-identically —
// the service is checkpoint/restore/replay-complete by construction.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"selfstab"
	"selfstab/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// StepsPerSecond is the real-time stepping rate. Default 10.
	StepsPerSecond float64
	// SnapshotDir is where POST /snapshot (and the drain snapshot) write
	// checkpoint files. Empty: /snapshot streams the document instead.
	SnapshotDir string
	// DrainSnapshot writes a final checkpoint to SnapshotDir when Run
	// drains (context canceled, e.g. on SIGTERM).
	DrainSnapshot bool
	// TraceRing is how many recent per-step records the attached
	// instrumentation collector retains for /trace exports and the
	// /metrics phase histograms. Default 512.
	TraceRing int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// service mux (the selfstab-sim serve -pprof flag). Off by default:
	// profiling endpoints expose process internals and cost CPU while
	// sampling, so they are opt-in.
	EnablePprof bool
}

// Server owns a stepping world and its HTTP surface.
type Server struct {
	cfg Config

	// mu is the step-boundary lock: Lock for stepping and world
	// mutation, RLock for pure reads. ConvergenceStats is NOT a pure
	// read (reading the ledger may close an open episode), so handlers
	// touching it take the write lock too.
	mu  sync.RWMutex
	net *selfstab.Network

	hub *hub

	// collector is the instrumentation probe New attaches to the world.
	// It is a pure observer with its own lock-free ring, so /trace and
	// the /metrics phase histograms read it without touching mu.
	collector *obs.Collector
}

// New wraps an already-constructed (typically stabilized or restored)
// world.
func New(net *selfstab.Network, cfg Config) (*Server, error) {
	if net == nil {
		return nil, fmt.Errorf("serve: nil network")
	}
	if cfg.StepsPerSecond == 0 {
		cfg.StepsPerSecond = 10
	}
	if cfg.StepsPerSecond <= 0 {
		return nil, fmt.Errorf("serve: steps per second %v must be positive", cfg.StepsPerSecond)
	}
	if cfg.DrainSnapshot && cfg.SnapshotDir == "" {
		return nil, fmt.Errorf("serve: drain snapshot requires a snapshot directory")
	}
	collector := selfstab.NewCollector(cfg.TraceRing)
	net.AttachProbe(collector)
	return &Server{cfg: cfg, net: net, hub: newHub(), collector: collector}, nil
}

// Run steps the world at the configured rate until ctx is canceled, then
// drains: the in-flight step completes (the lock guarantees it), an
// optional final checkpoint is written, and every SSE subscriber is
// closed. A step error stops the service and is returned.
func (s *Server) Run(ctx context.Context) error {
	interval := time.Duration(float64(time.Second) / s.cfg.StepsPerSecond)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	defer s.hub.closeAll()
	var lastFrame time.Time
	for {
		select {
		case <-ctx.Done():
			return s.drain()
		case <-ticker.C:
			if err := s.tick(&lastFrame); err != nil {
				return err
			}
		}
	}
}

// tick runs one step under the write lock and publishes its frame when
// one is due: frames are throttled to ~20/s regardless of stepping rate,
// and with nobody listening none is built at all. Under the lock a due
// frame is an O(1) copy of counters; encoding happens after the unlock,
// in the hub.
func (s *Server) tick(lastFrame *time.Time) error {
	due := s.hub.subscribers() > 0 && time.Since(*lastFrame) >= 50*time.Millisecond
	var frame stepFrame
	s.mu.Lock()
	err := s.net.Step()
	if due {
		frame = s.frameLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: step: %w", err)
	}
	if due {
		s.hub.publish(frame)
		*lastFrame = time.Now()
	}
	return nil
}

// drain writes the final checkpoint when configured.
func (s *Server) drain() error {
	if !s.cfg.DrainSnapshot {
		return nil
	}
	_, err := s.writeSnapshotFile()
	return err
}

// stepFrame is one SSE step frame: population counters only, so framing
// never slows a large world's step loop.
type stepFrame struct {
	Alive    int `json:"alive"`
	Dead     int `json:"dead"`
	Sleeping int `json:"sleeping"`
	Step     int `json:"step"`
}

// frameLocked copies out the current step frame. Caller holds mu (read
// or write).
func (s *Server) frameLocked() stepFrame {
	alive, sleeping, dead := s.net.Population()
	return stepFrame{Alive: alive, Dead: dead, Sleeping: sleeping, Step: s.net.StepCount()}
}

// encode renders the frame as the JSON object SSE clients receive.
func (f stepFrame) encode() []byte {
	b, _ := json.Marshal(f) // a struct of ints cannot fail to marshal
	return b
}

// Handler returns the HTTP surface. Routes:
//
//	GET  /healthz            liveness + step/population counters
//	GET  /state              every node's protocol state
//	GET  /state/node?id=N    one node, addressed by identifier
//	GET  /clusters           the current cluster map
//	GET  /stats/clustering   head counts, eccentricity, tree length
//	GET  /stats/convergence  the disruption ledger (write-locked read)
//	GET  /stats/traffic      the data-plane ledger (404 if not attached)
//	GET  /stats/energy       the battery ledger (404 if not attached)
//	GET  /metrics            Prometheus text format (incl. phase histograms)
//	GET  /events             SSE step frames
//	POST /inject             online scenario injection (see inject.go)
//	POST /snapshot           checkpoint to SnapshotDir, or stream
//	POST /trace              Chrome trace-event JSON of recent steps
//	/debug/pprof/*           net/http/pprof (only with EnablePprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.get(s.handleHealthz))
	mux.HandleFunc("/state", s.get(s.handleState))
	mux.HandleFunc("/state/node", s.get(s.handleNode))
	mux.HandleFunc("/clusters", s.get(s.handleClusters))
	mux.HandleFunc("/stats/clustering", s.get(s.handleClusteringStats))
	mux.HandleFunc("/stats/convergence", s.get(s.handleConvergence))
	mux.HandleFunc("/stats/traffic", s.get(s.handleTrafficStats))
	mux.HandleFunc("/stats/energy", s.get(s.handleEnergyStats))
	mux.HandleFunc("/metrics", s.get(s.handleMetrics))
	mux.HandleFunc("/events", s.get(s.handleEvents))
	mux.HandleFunc("/inject", s.post(s.handleInject))
	mux.HandleFunc("/snapshot", s.post(s.handleSnapshot))
	mux.HandleFunc("/trace", s.post(s.handleTrace))
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleTrace streams a Chrome trace-event JSON document (load it at
// chrome://tracing or https://ui.perfetto.dev) covering the most recent
// steps — all retained records by default, ?last=N for a bound. The
// collector's ring is lock-free, so the export never blocks stepping.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	last := 0
	if q := r.URL.Query().Get("last"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad last=%q: want a non-negative integer", q)
			return
		}
		last = n
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.collector.WriteTrace(w, last)
}

func (s *Server) get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		h(w, r)
	}
}

func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, a ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, a...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	alive, sleeping, dead := s.net.Population()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"step":     s.net.StepCount(),
		"nodes":    s.net.N(),
		"alive":    alive,
		"sleeping": sleeping,
		"dead":     dead,
	})
}

// nodeJSON is the wire form of one node's state.
type nodeJSON struct {
	ID      int64   `json:"id"`
	Index   int     `json:"index"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Density float64 `json:"density"`
	Head    int64   `json:"head"`
	Parent  int64   `json:"parent"`
	Color   int64   `json:"color"`
	IsHead  bool    `json:"is_head"`
	Status  string  `json:"status"`
}

func nodeToJSON(i int, st selfstab.NodeState) nodeJSON {
	return nodeJSON{
		ID: st.ID, Index: i, X: st.Position.X, Y: st.Position.Y,
		Density: st.Density, Head: st.HeadID, Parent: st.ParentID,
		Color: st.Color, IsHead: st.IsHead, Status: st.Status.String(),
	}
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	nodes := make([]nodeJSON, s.net.N())
	for i := range nodes {
		st, err := s.net.State(i)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		nodes[i] = nodeToJSON(i, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"step":  s.net.StepCount(),
		"nodes": nodes,
	})
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad or missing id: %v", err)
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, nid := range s.net.IDs() {
		if nid != id {
			continue
		}
		st, err := s.net.State(i)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, nodeToJSON(i, st))
		return
	}
	writeError(w, http.StatusNotFound, "unknown node id %d", id)
}

func (s *Server) handleClusters(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"step":     s.net.StepCount(),
		"clusters": s.net.Clusters(),
	})
}

func (s *Server) handleClusteringStats(w http.ResponseWriter, _ *http.Request) {
	// Stats computes on the live assignment; take the write lock so the
	// computation never overlaps a mutation of the cached tables.
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"step":  s.net.StepCount(),
		"stats": s.net.Stats(),
	})
}

func (s *Server) handleConvergence(w http.ResponseWriter, _ *http.Request) {
	// Reading the ledger may close an open disruption episode — a
	// mutation — so this is a write-locked read.
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"step":        s.net.StepCount(),
		"convergence": s.net.ConvergenceStats(),
	})
}

func (s *Server) handleTrafficStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ts, err := s.net.TrafficStats()
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"step":    s.net.StepCount(),
		"traffic": ts,
	})
}

func (s *Server) handleEnergyStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	es, err := s.net.EnergyStats()
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"step":   s.net.StepCount(),
		"energy": es,
	})
}

// handleEvents streams step frames as server-sent events until the
// client disconnects. Subscribers never touch the world: frames are
// pushed by the step loop, so a slow consumer drops frames instead of
// stalling the simulation.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// An immediate frame so clients see state before the next step.
	s.mu.RLock()
	first := s.frameLocked()
	s.mu.RUnlock()
	fmt.Fprintf(w, "data: %s\n\n", first.encode())
	flusher.Flush()
	ch := s.hub.subscribe()
	defer s.hub.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return // server draining
			}
			fmt.Fprintf(w, "data: %s\n\n", frame)
			flusher.Flush()
		}
	}
}

// handleSnapshot checkpoints the world. With a snapshot directory
// configured the document is written there and its path returned; with
// ?stream=1 (or no directory) the document itself is the response.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotDir == "" || r.URL.Query().Get("stream") == "1" {
		s.mu.RLock()
		defer s.mu.RUnlock()
		w.Header().Set("Content-Type", "application/json")
		if err := s.net.WriteSnapshot(w); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	path, err := s.writeSnapshotFile()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.mu.RLock()
	step := s.net.StepCount()
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"path": path, "step": step})
}

// writeSnapshotFile checkpoints to SnapshotDir under a step-stamped name.
func (s *Server) writeSnapshotFile() (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := os.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		return "", fmt.Errorf("serve: snapshot dir: %w", err)
	}
	path := filepath.Join(s.cfg.SnapshotDir, fmt.Sprintf("snapshot-step%08d.json", s.net.StepCount()))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := s.net.WriteSnapshot(f); err != nil {
		f.Close()
		return "", fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("serve: snapshot: %w", err)
	}
	return path, nil
}
