package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"selfstab"
	"selfstab/internal/obs"
	"selfstab/internal/serve"
)

// The serve workload: a 50 000-node world with energy and light churn
// stepping at 50 steps/s behind a real loopback listener, read by one SSE
// subscriber and one keep-alive connection that carries an open-loop
// schedule of 50 GETs a second plus one POST /inject a second. The engine
// is cheap here, so the serve shell does the work: the step-boundary lock,
// JSON encoding under it, the SSE hub, journaled injects and, at the end,
// restore by replay. There is no traffic plane on purpose: with one this
// would measure routing rebuilds, which the mixed workload isolates.
const (
	serveNodes  = 50000
	serveWarmup = 100
	serveRate   = 50 // target steps/s
	// getInterval spaces the GETs: about 21 a second. It is not a multiple
	// of the 20 ms tick, so requests sweep every phase of the step cycle
	// instead of locking to one. At the 50 a second first planned, the
	// single connection was busier than 100 % and latency measured only how
	// long the backlog had been growing; here it is busy about 40 %.
	getInterval = 47 * time.Millisecond
)

// getMix is the share of each read route in the schedule, in percent. The
// schedule interleaves the routes evenly (smooth weighted round-robin), so
// every run of a given length sends the same routes at the same instants
// and the seed moves only what the requests name. The two routes that hold
// the lock for hundreds of milliseconds are rare, and behind starts
// /stats/clustering half a cycle after /state so their backlogs stay apart.
var getMix = []struct {
	route, path string
	percent     int
	behind      int // credit the route starts behind by
}{
	{"healthz", "/healthz", 45, 0},
	{"state_node", "/state/node", 17, 0},
	{"clusters", "/clusters", 10, 0},
	{"metrics", "/metrics", 10, 0},
	{"stats_energy", "/stats/energy", 8, 0},
	{"stats_convergence", "/stats/convergence", 8, 0},
	{"state", "/state", 1, 0},
	{"stats_clustering", "/stats/clustering", 1, 50},
}

// request is one entry of the open-loop schedule.
type request struct {
	route, method, path string
	body                []byte
	due                 time.Duration // from the start of the window
}

// sample is what the generator measured for one request.
type sample struct {
	route             string
	due, issued, done time.Time
	bytes             int
	err               error
}

// schedule generates the window's requests from the seed. safe lists node
// ids nothing in this workload can kill, so no request names a dead node.
func (r *run) schedule(rng *rand.Rand, safe []int64, radio float64) []request {
	window := time.Duration(r.seconds * float64(time.Second))
	gets := max(1, int(window/getInterval)) // the rate is fixed: a shorter window holds fewer requests
	reqs := make([]request, 0, gets+int(r.seconds)+1)
	credit := make([]int, len(getMix))
	for k, m := range getMix {
		credit[k] = -m.behind
	}
	for i := 0; i < gets; i++ {
		pick := 0
		for k, m := range getMix {
			if credit[k] += m.percent; credit[k] > credit[pick] {
				pick = k
			}
		}
		credit[pick] -= 100
		m := getMix[pick]
		path := m.path
		if m.route == "state_node" {
			path += "?id=" + strconv.FormatInt(safe[rng.Intn(len(safe))], 10)
		}
		reqs = append(reqs, request{route: m.route, method: http.MethodGet, path: path, due: time.Duration(i) * getInterval})
	}
	region := func(kind string) map[string]any {
		return map[string]any{"kind": kind, "x": 0.1 + 0.8*rng.Float64(), "y": 0.1 + 0.8*rng.Float64(), "radius": 2 * radio}
	}
	var liars []int64
	for k := 0; k < int(r.seconds); k++ {
		var body map[string]any
		switch k % 7 {
		case 0:
			body = region("crash_region")
		case 1:
			body = region("sleep_region")
		case 2:
			body = map[string]any{"kind": "churn_burst", "count": 16, "op": "remove"}
		case 3:
			pts := make([]map[string]float64, 16)
			for i := range pts {
				pts[i] = map[string]float64{"x": rng.Float64(), "y": rng.Float64()}
			}
			body = map[string]any{"kind": "add_nodes", "points": pts}
		case 4:
			a := rng.Intn(len(safe) - 1)
			liars = []int64{safe[a], safe[a+1]}
			body = map[string]any{"kind": "byzantine", "ids": liars, "scale": 4}
		case 5:
			body = map[string]any{"kind": "evict", "ids": liars}
		case 6:
			body = map[string]any{"kind": "compact"}
		}
		b, _ := json.Marshal(body) // maps of numbers and strings always marshal
		due := time.Duration(k)*time.Second + time.Second/2
		reqs = append(reqs, request{route: "inject", method: http.MethodPost, path: "/inject", body: b, due: due})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// fetch issues one request and returns the whole response body; a status
// outside 2xx is an error.
func fetch(client *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return b, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	return b, nil
}

// do sends one scheduled request and checks that the response decodes. It
// returns the body's size.
func do(client *http.Client, base string, rq request) (int, error) {
	b, err := fetch(client, rq.method, base+rq.path, rq.body)
	if err != nil {
		return len(b), err
	}
	// Every route answers in JSON except /metrics.
	if rq.route == "metrics" && !bytes.Contains(b, []byte("selfstab_step_count")) || rq.route != "metrics" && !json.Valid(b) {
		return len(b), fmt.Errorf("%s %s: body does not decode", rq.method, rq.path)
	}
	return len(b), nil
}

// generate runs the open-loop schedule. One goroutine releases each request
// at its absolute due time, whatever happened to the ones before it; one
// worker sends them in order on the single keep-alive connection. A request
// stuck behind a slow one therefore waits, and that wait counts: latency is
// done − due. issued − due is how late the generator itself ran.
func generate(client *http.Client, base string, reqs []request, start time.Time) []sample {
	samples := make([]sample, len(reqs))
	// Sized to the schedule so the releasing goroutine never blocks on the
	// worker: its lateness is then its own.
	released := make(chan int, len(reqs))
	go func() {
		for i, rq := range reqs {
			due := start.Add(rq.due)
			time.Sleep(time.Until(due))
			samples[i].due, samples[i].issued = due, time.Now()
			released <- i
		}
		close(released)
	}()
	for i := range released {
		s := &samples[i]
		s.route = reqs[i].route
		s.bytes, s.err = do(client, base, reqs[i])
		s.done = time.Now()
	}
	return samples
}

// subscribe counts SSE frames on /events until the server closes the stream.
func subscribe(client *http.Client, base string, frames chan<- int) {
	n := 0
	defer func() { frames <- n }()
	resp, err := client.Get(base + "/events")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data:") {
			n++
		}
	}
}

// scrape parses a Prometheus text exposition into series → value.
func scrape(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// handlerMs times one GET through the handler alone: no socket, and no
// contention because the stepper is stopped.
func (r *run) handlerMs(h http.Handler, path string) float64 {
	rec := httptest.NewRecorder()
	d := r.span("handler "+path, func() { h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil)) })
	r.check(rec.Code == http.StatusOK, "handler %s: status %d", path, rec.Code)
	return ms(d)
}

func runServe(r *run) error {
	r.tr.begin("run")
	defer r.tr.end()
	attach := func(world *selfstab.Network) error {
		if err := world.AttachEnergy(selfstab.EnergyConfig{Capacity: 1e6, Rotation: true}); err != nil {
			return err
		}
		// No departures and no depletions: with the injects below removing
		// only the lowest-indexed nodes, the upper half of the initial
		// ids stays alive, so every scheduled request can succeed.
		return world.AttachChurn(selfstab.ChurnConfig{ArrivalRate: 0.1, CrashRate: 0.05, SleepRate: 0.1, SleepSteps: 20})
	}
	var (
		world  *selfstab.Network
		st     setupTimes
		setups []float64
		err    error
	)
	repeats := setupRepeats
	if r.traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		world = nil
		runtime.GC() // the discarded world must not count against the next one
		if world, st, err = r.setup(serveNodes, serveWarmup, attach); err != nil {
			return err
		}
		setups = append(setups, st.total().Seconds())
	}
	ids := world.IDs()
	reqs := r.schedule(r.rng(), ids[len(ids)/2:], world.Range())
	windowLen := reqs[len(reqs)-1].due + getInterval

	srv, err := serve.New(world, serve.Config{StepsPerSecond: serveRate,
		TraceRing: 2 * serveRate * int(windowLen.Seconds()+1)})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	// One connection each. A response that never comes must fail the
	// request, not hang the run; the event stream ends when the server does.
	reader := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}
	events := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}

	// The window: stepper, subscriber and generator run together.
	ctx, stop := context.WithCancel(context.Background())
	stepped := make(chan error, 1)
	frames := make(chan int, 1)
	startStep := world.StepCount()
	windowSpan := r.tr.begin("window")
	start := time.Now()
	go func() { stepped <- srv.Run(ctx) }()
	go subscribe(events, base, frames)
	samples := generate(reader, base, reqs, start.Add(100*time.Millisecond)) // the subscriber connects first
	stop()
	r.op(<-stepped)
	wall := r.tr.end()
	sseFrames := <-frames
	steps := world.StepCount() - startStep

	// The stepper is stopped, so the world is still; the listener is not.
	var doc, metricsText []byte
	snapD := r.span("snapshot", func() { doc, err = fetch(reader, http.MethodPost, base+"/snapshot?stream=1", nil) })
	r.op(err)
	metricsText, err = fetch(reader, http.MethodGet, base+"/metrics", nil)
	r.op(err)
	series := scrape(metricsText)
	if r.traced {
		r.op(saveServerTrace(reader, base, filepath.Join(r.outDir, "serve.steps.trace.json")))
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	r.op(httpSrv.Shutdown(shutCtx))
	cancel()
	<-served
	reader.CloseIdleConnections()
	events.CloseIdleConnections()

	// Sort the samples into reads and injects.
	var getMs, injectMs, lateMs []float64
	byRoute := map[string][]sample{}
	httpErrors := 0
	for _, s := range samples {
		r.op(s.err)
		if s.err != nil {
			httpErrors++
		}
		lat := ms(s.done.Sub(s.due))
		if s.route == "inject" {
			injectMs = append(injectMs, lat)
		} else {
			getMs = append(getMs, lat)
		}
		lateMs = append(lateMs, ms(s.issued.Sub(s.due)))
		byRoute[s.route] = append(byRoute[s.route], s)
		if r.traced {
			r.tr.add("req "+s.route, windowSpan, s.due, s.done)
		}
	}
	lateP99 := quantile(lateMs, 0.99)
	if lateP99 > ms(getInterval) {
		r.unresolved = fmt.Sprintf("the load generator ran %.1f ms late at p99, more than one %v interval", lateP99, getInterval)
	}
	rss, err := peakRSSMB() // before the restored world doubles the heap
	r.op(err)

	r.tr.begin("checks")
	defer r.tr.end()
	if r.digest, err = simDigest(world); err != nil {
		return err
	}
	r.snapshotMetrics(doc, snapD, r.digest)
	r.put("setup_s", median(setups), "s")
	r.put("steps_per_s", float64(steps)/wall.Seconds(), "1/s")
	r.put("op_p50_ms", median(getMs), "ms")
	r.put("peak_rss_mb", rss, "MB")
	if !r.traced {
		return nil
	}

	r.put("serve.handler.state_ms", r.handlerMs(srv.Handler(), "/state"), "ms")
	r.put("serve.handler.clusters_ms", r.handlerMs(srv.Handler(), "/clusters"), "ms")
	r.put("serve.handler.metrics_ms", r.handlerMs(srv.Handler(), "/metrics"), "ms")
	r.put("serve.req_p50_ms", median(getMs), "ms")
	r.put("serve.req_p99_ms", quantile(getMs, 0.99), "ms")
	r.put("serve.inject_p50_ms", median(injectMs), "ms")
	putRoute := func(route string, lat []float64, size int) {
		r.put("serve."+route+".p50_ms", median(lat), "ms")
		r.put("serve."+route+".max_ms", quantile(lat, 1), "ms")
		r.put("serve."+route+".bytes", float64(size), "B")
	}
	for route, ss := range byRoute {
		var lat []float64
		size := 0
		for _, s := range ss {
			lat = append(lat, ms(s.done.Sub(s.due)))
			size = max(size, s.bytes)
		}
		putRoute(route, lat, size)
	}
	putRoute("snapshot", []float64{ms(snapD)}, len(doc))
	r.put("serve.lock_hold_frac", series["selfstab_step_duration_seconds_sum"]/wall.Seconds(), "ratio")
	r.put("serve.ticks_dropped", serveRate*wall.Seconds()-float64(steps), "count")
	r.put("serve.sse_frames", float64(sseFrames), "count")
	r.put("serve.sse_dropped", series["selfstab_sse_dropped_frames_total"], "count")
	r.put("serve.gen_late_p99_ms", lateP99, "ms")
	r.put("serve.http_errors", float64(httpErrors), "count")
	r.put("serve.reads_attempted", float64(len(getMs)), "count")

	// The engine's phases, from the server's own collector.
	phaseUs := func(phase string) float64 {
		return 1e6 * series[`selfstab_phase_duration_seconds_sum{phase="`+phase+`"}`] / float64(max(steps, 1))
	}
	r.put("runtime.step_us", 1e6*series["selfstab_step_duration_seconds_sum"]/float64(max(steps, 1)), "us")
	r.put("runtime.frame_us", phaseUs("frame"), "us")
	r.put("runtime.halo_us", phaseUs("halo"), "us")
	r.put("runtime.ingest_us", phaseUs("ingest"), "us")
	r.put("churn.phase_us", phaseUs("churn"), "us")
	r.put("churn.compact_us", phaseUs("compact"), "us")
	r.put("energy.phase_us", phaseUs("energy"), "us")
	if c, ok := world.Probe().(*obs.Collector); ok {
		var stepMs []float64
		for _, rec := range c.Recent(0) {
			stepMs = append(stepMs, float64(rec.DurNs)/1e6)
		}
		r.put("runtime.step_p50_ms", median(stepMs), "ms")
		r.put("runtime.step_p99_ms", quantile(stepMs, 0.99), "ms")
	}
	r.putSetup(st)
	return nil
}

// saveServerTrace stores the server's own step trace (POST /trace) beside
// the harness's.
func saveServerTrace(client *http.Client, base, path string) error {
	b, err := fetch(client, http.MethodPost, base+"/trace", nil)
	if err != nil {
		return err
	}
	if !json.Valid(b) {
		return fmt.Errorf("POST /trace: %d bytes that are not a JSON document", len(b))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
