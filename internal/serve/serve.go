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
// each Δ(τ) step; a query handler copies what it serves under the read
// lock (so it observes a fully settled step, never a torn one, and scales
// with concurrent readers), while injections and ledger reads that may
// close a disruption episode copy under the write lock and serialize with
// stepping. No handler touches its ResponseWriter while holding the lock:
// encoding and the socket come after the unlock, so a slow or stalled
// client costs the stepper the copy and nothing more
// (TestNoHandlerWritesUnderLock).
// Injections route through the same journaled op chokepoint as the
// embedding API, so a snapshot taken over HTTP replays bit-identically —
// the service is checkpoint/restore/replay-complete by construction.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
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

	// ticksDropped counts the ticks Run's ticker discarded because the
	// previous tick's step had not finished (exported through /metrics).
	ticksDropped atomic.Int64

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
	var lastFrame, lastTick time.Time
	for {
		select {
		case <-ctx.Done():
			return s.drain()
		case now := <-ticker.C:
			// The ticker drops ticks for a slow receiver but keeps its
			// period, so the gap between two delivered ticks says how many
			// were lost in between.
			if !lastTick.IsZero() {
				s.ticksDropped.Add(max(0, int64((now.Sub(lastTick)+interval/2)/interval)-1))
			}
			lastTick = now
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
	_, _, err := s.writeSnapshotFile()
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

// writeJSON sends v as an indented JSON document. It marshals before it
// writes the status line, so a value that does not encode (a non-finite
// float) is a 500 with an error document, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = json.MarshalIndent(map[string]string{"error": err.Error()}, "", "  ") // a map of strings always marshals
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n')) // a failed write means the client left
}

func writeError(w http.ResponseWriter, code int, format string, a ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, a...)})
}

// view runs f under the read lock and update runs it under the write
// lock. They are how handlers reach the world: f copies out what the
// response needs and returns, and the handler encodes and writes after
// the lock is released (also when f panics).
func (s *Server) view(f func(net *selfstab.Network)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f(s.net)
}

func (s *Server) update(f func(net *selfstab.Network)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.net)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var alive, sleeping, dead, step, nodes int
	s.view(func(net *selfstab.Network) {
		alive, sleeping, dead = net.Population()
		step, nodes = net.StepCount(), net.N()
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"step":     step,
		"nodes":    nodes,
		"alive":    alive,
		"sleeping": sleeping,
		"dead":     dead,
	})
}

// nodeJSON is the wire form of one node's state. appendNode in state.go
// writes the same keys in the same order without reflection; keep the two
// in step (TestStateStreamMatchesEncodingJSON compares them).
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

// handleState serves every node's state: an O(N) copy under the read
// lock, then the document streamed from the copy (state.go).
func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	var (
		step  int
		nodes []nodeJSON
		err   error
	)
	s.view(func(net *selfstab.Network) {
		step, nodes = net.StepCount(), make([]nodeJSON, net.N())
		for i := range nodes {
			var st selfstab.NodeState
			if st, err = net.State(i); err != nil {
				return
			}
			nodes[i] = nodeToJSON(i, st)
			// JSON has no NaN or Inf; refuse while a status can still be sent.
			if err = finite(st.Position.X, st.Position.Y, st.Density); err != nil {
				err = fmt.Errorf("node %d: %w", st.ID, err)
				return
			}
		}
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = writeState(w, step, nodes) // a failed write means the client left
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad or missing id: %v", err)
		return
	}
	var (
		i  int
		ok bool
		st selfstab.NodeState
	)
	s.view(func(net *selfstab.Network) {
		if i, ok = net.IndexOf(id); ok {
			st, err = net.State(i)
		}
	})
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown node id %d", id)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, nodeToJSON(i, st))
	}
}

func (s *Server) handleClusters(w http.ResponseWriter, _ *http.Request) {
	var step int
	var clusters []selfstab.Cluster
	s.view(func(net *selfstab.Network) { step, clusters = net.StepCount(), net.Clusters() })
	writeJSON(w, http.StatusOK, map[string]any{"step": step, "clusters": clusters})
}

func (s *Server) handleClusteringStats(w http.ResponseWriter, _ *http.Request) {
	// Stats is a pure read: it measures a private copy of the assignment
	// against the topology, in O(N+E).
	var step int
	var stats selfstab.Stats
	s.view(func(net *selfstab.Network) { step, stats = net.StepCount(), net.Stats() })
	writeJSON(w, http.StatusOK, map[string]any{"step": step, "stats": stats})
}

func (s *Server) handleConvergence(w http.ResponseWriter, _ *http.Request) {
	// Reading the ledger may close an open disruption episode — a
	// mutation — so this is a write-locked read.
	var step int
	var cs selfstab.ConvergenceStats
	s.update(func(net *selfstab.Network) { step, cs = net.StepCount(), net.ConvergenceStats() })
	writeJSON(w, http.StatusOK, map[string]any{"step": step, "convergence": cs})
}

func (s *Server) handleTrafficStats(w http.ResponseWriter, _ *http.Request) {
	var (
		step int
		ts   selfstab.TrafficStats
		err  error
	)
	s.view(func(net *selfstab.Network) {
		step = net.StepCount()
		ts, err = net.TrafficStats()
	})
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"step": step, "traffic": ts})
}

func (s *Server) handleEnergyStats(w http.ResponseWriter, _ *http.Request) {
	var (
		step int
		es   selfstab.EnergyStats
		err  error
	)
	s.view(func(net *selfstab.Network) {
		step = net.StepCount()
		es, err = net.EnergyStats()
	})
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"step": step, "energy": es})
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
	var first stepFrame
	s.view(func(*selfstab.Network) { first = s.frameLocked() })
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
		doc, _, err := s.snapshotDoc()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(doc) // a failed write means the client left
		return
	}
	path, step, err := s.writeSnapshotFile()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": path, "step": step})
}

// snapshotDoc encodes the checkpoint document of the current step into
// memory under the read lock; socket and disk come after the unlock.
func (s *Server) snapshotDoc() (doc []byte, step int, err error) {
	var buf bytes.Buffer
	s.view(func(net *selfstab.Network) { step, err = net.StepCount(), net.WriteSnapshot(&buf) })
	if err != nil {
		return nil, 0, fmt.Errorf("serve: snapshot: %w", err)
	}
	return buf.Bytes(), step, nil
}

// writeSnapshotFile checkpoints to SnapshotDir under a step-stamped name
// and returns the path and the step it holds.
func (s *Server) writeSnapshotFile() (string, int, error) {
	doc, step, err := s.snapshotDoc()
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		return "", 0, fmt.Errorf("serve: snapshot dir: %w", err)
	}
	path := filepath.Join(s.cfg.SnapshotDir, fmt.Sprintf("snapshot-step%08d.json", step))
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return "", 0, fmt.Errorf("serve: snapshot: %w", err)
	}
	return path, step, nil
}
