package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"selfstab"
)

func testWorld(t testing.TB, nodes int) *selfstab.Network {
	t.Helper()
	net, err := selfstab.NewRandomNetwork(nodes,
		selfstab.WithSeed(7), selfstab.WithRange(0.14), selfstab.WithCacheTTL(4),
		selfstab.WithStableWindow(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(2000); err != nil {
		t.Fatal(err)
	}
	return net
}

func testServer(t testing.TB, nodes int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(testWorld(t, nodes), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, v any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil network accepted")
	}
	net := testWorld(t, 20)
	if _, err := New(net, Config{StepsPerSecond: -1}); err == nil {
		t.Error("negative sps accepted")
	}
	if _, err := New(net, Config{DrainSnapshot: true}); err == nil {
		t.Error("drain snapshot without a directory accepted")
	}
}

func TestEndpoints(t *testing.T) {
	_, ts := testServer(t, 40, Config{})

	var health struct {
		OK    bool `json:"ok"`
		Nodes int  `json:"nodes"`
		Alive int  `json:"alive"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if !health.OK || health.Nodes != 40 || health.Alive != 40 {
		t.Errorf("healthz = %+v", health)
	}

	var state struct {
		Nodes []nodeJSON `json:"nodes"`
	}
	getJSON(t, ts.URL+"/state", &state)
	if len(state.Nodes) != 40 {
		t.Fatalf("state has %d nodes, want 40", len(state.Nodes))
	}
	for _, n := range state.Nodes {
		if n.Status != "alive" {
			t.Errorf("node %d status %q", n.ID, n.Status)
		}
	}

	var node nodeJSON
	getJSON(t, fmt.Sprintf("%s/state/node?id=%d", ts.URL, state.Nodes[3].ID), &node)
	if node != state.Nodes[3] {
		t.Errorf("node lookup %+v != state entry %+v", node, state.Nodes[3])
	}
	if resp := getJSON(t, ts.URL+"/state/node?id=999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/state/node?id=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", resp.StatusCode)
	}

	var clusters struct {
		Clusters []selfstab.Cluster `json:"clusters"`
	}
	getJSON(t, ts.URL+"/clusters", &clusters)
	if len(clusters.Clusters) == 0 {
		t.Error("no clusters reported")
	}
	total := 0
	for _, c := range clusters.Clusters {
		total += len(c.Members)
	}
	if total != 40 {
		t.Errorf("cluster members sum to %d, want 40", total)
	}

	var cstats struct {
		Stats selfstab.Stats `json:"stats"`
	}
	getJSON(t, ts.URL+"/stats/clustering", &cstats)
	if cstats.Stats.Clusters != len(clusters.Clusters) {
		t.Errorf("stats report %d clusters, map has %d", cstats.Stats.Clusters, len(clusters.Clusters))
	}

	getJSON(t, ts.URL+"/stats/convergence", &struct{}{})

	// No traffic or energy attached: 404s with a JSON error.
	if resp := getJSON(t, ts.URL+"/stats/traffic", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("traffic stats without traffic: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/stats/energy", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("energy stats without energy: status %d, want 404", resp.StatusCode)
	}

	// Method checks.
	if resp := postJSON(t, ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: status %d, want 405", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/inject")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /inject: status %d, want 405", resp.StatusCode)
	}
}

func TestMetrics(t *testing.T) {
	_, ts := testServer(t, 30, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"selfstab_step_count",
		`selfstab_nodes{status="alive"} 30`,
		`selfstab_nodes{status="dead"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "selfstab_traffic") {
		t.Error("traffic metrics present without traffic attached")
	}
}

func TestInject(t *testing.T) {
	srv, ts := testServer(t, 40, Config{})

	var state struct {
		Nodes []nodeJSON `json:"nodes"`
	}
	getJSON(t, ts.URL+"/state", &state)
	victim := state.Nodes[5].ID

	var result struct {
		Affected int    `json:"affected"`
		Kind     string `json:"kind"`
	}
	resp := postJSON(t, ts.URL+"/inject",
		map[string]any{"kind": "remove_nodes", "ids": []int64{victim}}, &result)
	if resp.StatusCode != http.StatusOK || result.Affected != 1 {
		t.Fatalf("remove inject: status %d, result %+v", resp.StatusCode, result)
	}
	var node nodeJSON
	getJSON(t, fmt.Sprintf("%s/state/node?id=%d", ts.URL, victim), &node)
	if node.Status != "dead" {
		t.Errorf("removed node status %q, want dead", node.Status)
	}

	// Regional sleep around a known node: at least that node sleeps.
	target := state.Nodes[10]
	postJSON(t, ts.URL+"/inject", map[string]any{
		"kind": "sleep_region", "x": target.X, "y": target.Y, "radius": 0.03,
	}, &result)
	if result.Affected < 1 {
		t.Fatalf("sleep_region affected %d nodes", result.Affected)
	}
	getJSON(t, fmt.Sprintf("%s/state/node?id=%d", ts.URL, target.ID), &node)
	if node.Status != "sleeping" {
		t.Errorf("regional sleep left node %d %q", target.ID, node.Status)
	}

	// Churn burst.
	postJSON(t, ts.URL+"/inject", map[string]any{
		"kind": "churn_burst", "count": 3, "op": "crash",
	}, &result)
	if result.Affected != 3 {
		t.Errorf("churn_burst affected %d, want 3", result.Affected)
	}

	// add_nodes grows the world.
	postJSON(t, ts.URL+"/inject", map[string]any{
		"kind": "add_nodes", "points": []map[string]float64{{"x": 0.5, "y": 0.5}},
	}, &result)
	var health struct {
		Nodes int `json:"nodes"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Nodes != 41 {
		t.Errorf("after add_nodes: %d nodes, want 41", health.Nodes)
	}

	// Bad requests are 400s and mutate nothing: unknown kinds (the old
	// spellings and journal kinds /inject does not take among them) and
	// bad values. TestInjectRefusesStrayFields has the stray fields.
	alive := state.Nodes[39].ID
	before := snapshotBytes(t, srv)
	flow := map[string]any{"kind": "cbr", "src": 1, "dst": 2, "rate": 0.5}
	for _, body := range []any{
		map[string]any{"kind": "nope"},
		map[string]any{"kind": "faults", "frac": 0.5},
		map[string]any{"kind": "crash", "ids": []int64{alive}},
		map[string]any{"kind": "attach_churn", "churn": map[string]any{"crash_rate": 1}},
		map[string]any{"kind": "inject_faults", "frac": 2.0},
		map[string]any{"kind": "inject_faults", "frac": 0},
		map[string]any{"kind": "crash_nodes", "ids": []int64{999999}},
		map[string]any{"kind": "crash_region", "x": 0.5, "y": 0.5, "radius": -1},
		map[string]any{"kind": "churn_burst", "count": 0, "op": "crash"},
		map[string]any{"kind": "spawn_flows", "traffic": map[string]any{"flows": []any{flow}}},
		map[string]any{"bogus_field": 1},
	} {
		if resp := postJSON(t, ts.URL+"/inject", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("inject %v: status %d, want 400", body, resp.StatusCode)
		}
	}
	if !bytes.Equal(snapshotBytes(t, srv), before) {
		t.Error("a refused inject changed the snapshot")
	}

	// The injections were journaled: a snapshot restores to this world.
	restored, err := selfstab.ReadSnapshot(bytes.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != 41 {
		t.Errorf("restored world has %d nodes, want 41", restored.N())
	}
	ra, _, _ := restored.Population()
	oa, _, _ := srv.net.Population()
	if ra != oa {
		t.Errorf("restored alive %d, original %d", ra, oa)
	}
}

// snapshotBytes checkpoints the server's world under the read lock.
func snapshotBytes(t testing.TB, srv *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	srv.mu.RLock()
	err := srv.net.WriteSnapshot(&buf)
	srv.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInjectBodyCap: a POST /inject body over maxInjectBody is refused
// with 413 before the world lock is taken — the test holds the lock for
// the whole request — and journals nothing. The body is a valid one-point
// add_nodes padded with whitespace, so only its size is wrong.
func TestInjectBodyCap(t *testing.T) {
	srv, ts := testServer(t, 30, Config{})
	before := snapshotBytes(t, srv)
	body := `{"kind":"add_nodes","points":[{"x":0.5,"y":0.5}` + strings.Repeat(" ", 2<<20) + `]}`

	client := &http.Client{Timeout: 5 * time.Second}
	srv.mu.Lock()
	resp, err := client.Post(ts.URL+"/inject", "application/json", strings.NewReader(body))
	srv.mu.Unlock()
	if err != nil {
		t.Fatalf("a 2 MiB inject was not answered while the world lock was held: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB inject: status %d, want 413", resp.StatusCode)
	}
	if !bytes.Equal(snapshotBytes(t, srv), before) {
		t.Error("a refused inject changed the journal or the step")
	}
}

// TestInjectNodeCap: a sybil count or an add_nodes point count over
// maxInjectNodes is refused with 422 before the world lock is taken.
func TestInjectNodeCap(t *testing.T) {
	srv, ts := testServer(t, 30, Config{})
	target := srv.net.IDs()[0]
	points := `{"x":0.5,"y":0.5}` + strings.Repeat(`,{"x":0.5,"y":0.5}`, maxInjectNodes)
	requireRefusedUnderLock(t, srv, ts, map[string]string{
		"sybil":     fmt.Sprintf(`{"kind":"sybil","target":%d,"count":2000000000}`, target),
		"add_nodes": `{"kind":"add_nodes","points":[` + points + `]}`,
	})
}

// TestInjectRateCap: a spawn_flows op's total rate, or a flood's count
// times its rate, over maxInjectRate is refused with 422 before the world
// lock is taken, for CBR and Poisson flows alike — every later step would
// otherwise inject that many packets under the lock. A flood whose every
// bot stays under the cap, two flows each under it, and a hotspot whose
// per-source rate is under it are refused on their totals. So is a load
// of negligible rate that would create over maxInjectNodes flows, a
// hotspot counting once per source.
func TestInjectRateCap(t *testing.T) {
	srv, ts := testServer(t, 30, Config{})
	ids := srv.net.IDs()
	if err := srv.net.AttachTraffic(selfstab.TrafficConfig{
		Flows: []selfstab.Flow{selfstab.CBRFlow(ids[0], ids[1], 0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	bodies := map[string]string{}
	for _, rate := range []string{"1e12", "1e300"} {
		bodies["flood "+rate] = `{"kind":"flood","count":2,"rate":` + rate + `}`
		for _, kind := range []string{"cbr", "poisson"} {
			bodies["spawn_flows "+kind+" "+rate] = fmt.Sprintf(
				`{"kind":"spawn_flows","traffic":{"flows":[{"kind":%q,"src":%d,"dst":%d,"rate":%s}]}}`, kind, ids[2], ids[3], rate)
		}
	}
	bodies["spawn_flows hotspot 29x100"] = fmt.Sprintf(
		`{"kind":"spawn_flows","traffic":{"flows":[{"kind":"poisson","dst":%d,"rate":100,"hotspot_sources":29}]}}`, ids[3])
	bodies["spawn_flows total 2x600"] = fmt.Sprintf(
		`{"kind":"spawn_flows","traffic":{"flows":[{"kind":"cbr","src":%d,"dst":%d,"rate":600},{"kind":"cbr","src":%d,"dst":%d,"rate":600}]}}`,
		ids[2], ids[3], ids[4], ids[5])
	bodies["flood total 2x600"] = `{"kind":"flood","count":2,"rate":600}`
	bodies["flood total 5000x1"] = `{"kind":"flood","count":5000,"rate":1}`
	cbr := fmt.Sprintf(`{"kind":"cbr","src":%d,"dst":%d,"rate":1e-6}`, ids[2], ids[3])
	bodies["spawn_flows count 10001 cbr"] = `{"kind":"spawn_flows","traffic":{"flows":[` +
		strings.Repeat(cbr+",", maxInjectNodes) + cbr + `]}}`
	bodies["spawn_flows count 2x5001 hotspot"] = fmt.Sprintf(
		`{"kind":"spawn_flows","traffic":{"flows":[{"kind":"cbr","dst":%d,"rate":1e-6,"hotspot_sources":5001},{"kind":"cbr","dst":%d,"rate":1e-6,"hotspot_sources":5001}]}}`,
		ids[3], ids[4])
	bodies["spawn_flows count huge hotspot"] = fmt.Sprintf(
		`{"kind":"spawn_flows","traffic":{"flows":[{"kind":"cbr","dst":%d,"rate":1e-300,"hotspot_sources":9223372036854775807},{"kind":"cbr","dst":%d,"rate":1e-300,"hotspot_sources":9223372036854775807}]}}`,
		ids[3], ids[4])
	bodies["flood count 10001"] = `{"kind":"flood","count":10001,"rate":1e-6}`
	requireRefusedUnderLock(t, srv, ts, bodies)
}

// requireRefusedUnderLock posts each inject body while the test holds the
// world lock for the whole request, and requires a 422, a journal and a
// step left where they were, and a server that keeps answering.
func requireRefusedUnderLock(t *testing.T, srv *Server, ts *httptest.Server, bodies map[string]string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	for name, body := range bodies {
		before := snapshotBytes(t, srv)
		srv.mu.Lock()
		resp, err := client.Post(ts.URL+"/inject", "application/json", strings.NewReader(body))
		srv.mu.Unlock()
		if err != nil {
			t.Fatalf("%s: an over-cap inject was not answered while the world lock was held: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", name, resp.StatusCode)
		}
		if !bytes.Equal(snapshotBytes(t, srv), before) {
			t.Errorf("%s: a refused inject changed the journal or the step", name)
		}
		resp, err = client.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: /healthz status %d after a refused inject, want 200", name, resp.StatusCode)
		}
	}
}

func TestSpawnFlow(t *testing.T) {
	srv, ts := testServer(t, 40, Config{})
	ids := srv.net.IDs()
	if err := srv.net.AttachTraffic(selfstab.TrafficConfig{
		Flows: []selfstab.Flow{selfstab.CBRFlow(ids[0], ids[1], 0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	var result struct {
		Affected int `json:"affected"`
	}
	resp := postJSON(t, ts.URL+"/inject", map[string]any{
		"kind": "spawn_flows",
		"traffic": map[string]any{"flows": []any{
			map[string]any{"kind": "poisson", "src": ids[2], "dst": ids[3], "rate": 0.4},
		}},
	}, &result)
	if resp.StatusCode != http.StatusOK || result.Affected != 1 {
		t.Fatalf("spawn_flows: status %d, affected %d", resp.StatusCode, result.Affected)
	}
	var stats struct {
		Traffic selfstab.TrafficStats `json:"traffic"`
	}
	getJSON(t, ts.URL+"/stats/traffic", &stats)
	if len(stats.Traffic.PerFlow) != 2 {
		t.Errorf("after spawn_flows: %d flows, want 2", len(stats.Traffic.PerFlow))
	}
}

func TestSnapshotEndpointAndRestore(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, 30, Config{SnapshotDir: dir})

	var result struct {
		Path string `json:"path"`
		Step int    `json:"step"`
	}
	resp := postJSON(t, ts.URL+"/snapshot", nil, &result)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	if filepath.Dir(result.Path) != dir {
		t.Errorf("snapshot path %q not under %q", result.Path, dir)
	}
	raw, err := os.ReadFile(result.Path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := selfstab.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != srv.net.N() || restored.StepCount() != srv.net.StepCount() {
		t.Errorf("restored world N=%d step=%d, original N=%d step=%d",
			restored.N(), restored.StepCount(), srv.net.N(), srv.net.StepCount())
	}

	// Streaming variant returns the document itself.
	respStream, err := http.Post(ts.URL+"/snapshot?stream=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer respStream.Body.Close()
	if _, err := selfstab.ReadSnapshot(respStream.Body); err != nil {
		t.Errorf("streamed snapshot does not restore: %v", err)
	}
}

// TestRunStepsAndSSE boots the stepper, watches the world advance via
// /events frames, and checks graceful drain (including the drain
// snapshot).
func TestRunStepsAndSSE(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, 30, Config{
		StepsPerSecond: 200,
		SnapshotDir:    dir,
		DrainSnapshot:  true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	deadline := time.After(10 * time.Second)
	var first, last int
	frames := 0
	for frames < 3 {
		lineCh := make(chan string, 1)
		go func() {
			if scanner.Scan() {
				lineCh <- scanner.Text()
			} else {
				lineCh <- ""
			}
		}()
		var line string
		select {
		case line = <-lineCh:
		case <-deadline:
			t.Fatal("timed out waiting for SSE frames")
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var frame struct {
			Step int `json:"step"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		if frames == 0 {
			first = frame.Step
		}
		last = frame.Step
		frames++
	}
	if last <= first {
		t.Errorf("world did not advance: first frame step %d, last %d", first, last)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not drain")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no drain snapshot written")
	}
	f, err := os.Open(filepath.Join(dir, entries[len(entries)-1].Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := selfstab.ReadSnapshot(f); err != nil {
		t.Errorf("drain snapshot does not restore: %v", err)
	}
}

// TestTickBuildsFramesOnlyWhenPublished: a tick with nobody subscribed, or
// inside the 50 ms throttle, steps the world but encodes no frame — the
// hub is the only place a tick's frame is marshaled, and it is not
// reached. The wire format is the sorted-key object clients always got.
func TestTickBuildsFramesOnlyWhenPublished(t *testing.T) {
	srv, _ := testServer(t, 30, Config{})
	var last time.Time
	for i := 0; i < 5; i++ {
		if err := srv.tick(&last); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.hub.publishedFrames(); got != 0 {
		t.Fatalf("%d frames encoded with no subscriber", got)
	}
	if !last.IsZero() {
		t.Fatal("throttle clock advanced without a publish")
	}

	ch := srv.hub.subscribe()
	defer srv.hub.unsubscribe(ch)
	if err := srv.tick(&last); err != nil {
		t.Fatal(err)
	}
	if got := srv.hub.publishedFrames(); got != 1 {
		t.Fatalf("%d frames encoded for a due tick with a subscriber, want 1", got)
	}
	want := fmt.Sprintf(`{"alive":30,"dead":0,"sleeping":0,"step":%d}`, srv.net.StepCount())
	if got := string(<-ch); got != want {
		t.Fatalf("frame %s, want %s", got, want)
	}
	// Immediately after a publish the throttle holds the next frame back.
	if err := srv.tick(&last); err != nil {
		t.Fatal(err)
	}
	if got := srv.hub.publishedFrames(); got != 1 {
		t.Fatalf("%d frames encoded inside the throttle window, want 1", got)
	}
}

// TestConcurrentReadersWhileStepping is the serving layer's race
// contract: a stepping world serves concurrent /state, /clusters,
// /stats/clustering (read-locked, so two of them overlap each other and
// the other readers), /metrics and SSE readers plus injections without
// torn reads (run under -race). The world size scales up when not in -short mode to cover the
// 10k-node acceptance scenario.
func TestConcurrentReadersWhileStepping(t *testing.T) {
	nodes := 500
	if !testing.Short() {
		nodes = 10000
	}
	// No cold stabilization: the service stabilizes the world live, and
	// pre-stabilizing 10k nodes under -race would dominate the test.
	world, err := selfstab.NewRandomNetwork(nodes,
		selfstab.WithSeed(7), selfstab.WithRange(0.02), selfstab.WithCacheTTL(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(world, Config{StepsPerSecond: 500})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	readLoop := func(path string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				return // server shutting down
			}
			var sink bytes.Buffer
			_, _ = sink.ReadFrom(resp.Body)
			resp.Body.Close()
		}
	}
	for _, path := range []string{"/state", "/state", "/clusters", "/metrics", "/healthz", "/stats/convergence", "/stats/clustering", "/stats/clustering"} {
		wg.Add(1)
		go readLoop(path)
	}
	// One SSE consumer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				return
			}
		}
	}()
	// Injections race the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b, _ := json.Marshal(map[string]any{"kind": "churn_burst", "count": 2, "op": "crash"})
			resp, err := http.Post(ts.URL+"/inject", "application/json", bytes.NewReader(b))
			if err == nil {
				resp.Body.Close()
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	cancel()
	wg.Wait()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not drain")
	}
	if srv.net.StepCount() == 0 {
		t.Error("world never stepped")
	}
}

// TestNodeLookupFollowsCompaction: /state/node resolves ids through the
// world's id index, so it answers for the slot an id occupies now: an
// unknown id and an id whose slot Compact recycled are 404s, and an id
// that Compact moved is served from its new index.
func TestNodeLookupFollowsCompaction(t *testing.T) {
	srv, ts := testServer(t, 40, Config{})
	ids := srv.net.IDs()
	gone, moved := ids[2], ids[30]

	var node nodeJSON
	getJSON(t, fmt.Sprintf("%s/state/node?id=%d", ts.URL, moved), &node)
	if node.ID != moved || node.Index != 30 {
		t.Fatalf("before compaction: id %d served as %+v, want index 30", moved, node)
	}
	postJSON(t, ts.URL+"/inject", map[string]any{"kind": "remove_nodes", "ids": []int64{gone}}, nil)
	if resp := getJSON(t, fmt.Sprintf("%s/state/node?id=%d", ts.URL, gone), &node); resp.StatusCode != http.StatusOK || node.Status != "dead" {
		t.Fatalf("removed, not yet compacted: status %d, node %+v; want 200 and dead", resp.StatusCode, node)
	}
	var result struct {
		Affected int `json:"affected"`
	}
	postJSON(t, ts.URL+"/inject", map[string]any{"kind": "compact"}, &result)
	if result.Affected != 1 {
		t.Fatalf("compact recycled %d slots, want 1", result.Affected)
	}

	if resp := getJSON(t, fmt.Sprintf("%s/state/node?id=%d", ts.URL, gone), nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("compacted-away id: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/state/node?id=999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
	getJSON(t, fmt.Sprintf("%s/state/node?id=%d", ts.URL, moved), &node)
	if node.ID != moved || node.Index != 29 || node.Status != "alive" {
		t.Errorf("after compaction: id %d served as %+v, want index 29 and alive", moved, node)
	}
}

// TestTicksDroppedCounter: a lock holder that outlasts several tick
// intervals costs the stepper those ticks, and the service says so in
// selfstab_ticks_dropped_total instead of leaving it to be inferred from
// the step rate.
func TestTicksDroppedCounter(t *testing.T) {
	srv, ts := testServer(t, 30, Config{StepsPerSecond: 100})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	// Let the stepper settle into its rhythm, then hold the world for
	// well over three 10 ms intervals.
	for start := srv.stepCount(); srv.stepCount() < start+3; {
		time.Sleep(time.Millisecond)
	}
	srv.mu.Lock()
	time.Sleep(80 * time.Millisecond)
	srv.mu.Unlock()
	// The gap shows between the first two ticks delivered after the hold.
	for deadline := time.Now().Add(5 * time.Second); srv.ticksDropped.Load() < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var dropped int64
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "selfstab_ticks_dropped_total "); ok {
			if _, err := fmt.Sscan(v, &dropped); err != nil {
				t.Fatalf("bad counter line %q: %v", line, err)
			}
		}
	}
	if dropped < 3 {
		t.Errorf("selfstab_ticks_dropped_total = %d after holding the lock across 8 intervals, want at least 3\n%s", dropped, buf.String())
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// stepCount reads the world's step counter under the read lock.
func (s *Server) stepCount() (step int) {
	s.view(func(net *selfstab.Network) { step = net.StepCount() })
	return step
}

// TestObservabilityEndpoints covers the instrumentation surface: the
// phase histograms, engine counters, convergence and SSE-drop blocks in
// /metrics, and the Chrome trace export.
func TestObservabilityEndpoints(t *testing.T) {
	srv, ts := testServer(t, 30, Config{TraceRing: 64})
	// The collector attaches in New, after stabilization. A quiescent
	// world skips the frame/ingest phases entirely, so perturb it first,
	// then step so the ring and histograms have real content.
	postJSON(t, ts.URL+"/inject", map[string]any{"kind": "churn_burst", "count": 2, "op": "crash"}, nil)
	srv.mu.Lock()
	for i := 0; i < 20; i++ {
		if err := srv.net.Step(); err != nil {
			srv.mu.Unlock()
			t.Fatal(err)
		}
	}
	srv.mu.Unlock()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE selfstab_step_duration_seconds histogram",
		`selfstab_step_duration_seconds_bucket{le="+Inf"} 20`,
		"selfstab_step_duration_seconds_count 20",
		`selfstab_phase_duration_seconds_bucket{phase="frame",le="+Inf"}`,
		`selfstab_phase_duration_seconds_count{phase="ingest"}`,
		`selfstab_phase_duration_seconds_count{phase="churn"} 20`,
		"selfstab_engine_frontier_len",
		"selfstab_engine_dense_fallbacks_total",
		"selfstab_convergence_episodes_total",
		"selfstab_convergence_steps_to_restabilize{stat=\"mean\"}",
		"selfstab_convergence_affected_radius{stat=\"max\"}",
		"selfstab_sse_published_frames_total 0",
		"selfstab_sse_dropped_frames_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", out)
	}

	// The trace export is valid Chrome trace JSON with step spans.
	traceResp, err := http.Post(ts.URL+"/trace?last=10", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("POST /trace: status %d", traceResp.StatusCode)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(traceResp.Body).Decode(&tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	steps := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Name == "step" {
			steps++
		}
	}
	if steps != 10 {
		t.Errorf("trace has %d step spans, want 10", steps)
	}

	// Bad bounds and wrong methods are rejected.
	badResp, err := http.Post(ts.URL+"/trace?last=-1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /trace?last=-1: status %d, want 400", badResp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /trace: status %d, want 405", getResp.StatusCode)
	}
}

// TestPprofGating: the profiling endpoints exist only behind the opt-in
// config knob.
func TestPprofGating(t *testing.T) {
	_, off := testServer(t, 20, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: status %d, want 404", resp.StatusCode)
	}

	_, on := testServer(t, 20, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index with EnablePprof: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(on.URL + "/debug/pprof/symbol")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof symbol: status %d, want 200", resp.StatusCode)
	}
}
