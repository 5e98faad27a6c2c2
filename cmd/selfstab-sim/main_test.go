package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

func TestParseRanges(t *testing.T) {
	tests := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"0.05,0.08,0.1", 3, false},
		{"0.05", 1, false},
		{" 0.05 , 0.1 ", 2, false},
		{"", 0, true},
		{"abc", 0, true},
		{",,", 0, true},
	}
	for _, tt := range tests {
		got, err := parseRanges(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseRanges(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && len(got) != tt.want {
			t.Errorf("parseRanges(%q) = %v, want %d values", tt.in, got, tt.want)
		}
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1-density") || !strings.Contains(out, "1.25") {
		t.Errorf("table1 output missing expected cells:\n%s", out)
	}
}

func TestRunTable3Small(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "table3", "-runs", "2", "-lambda", "200", "-ranges", "0.1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Grid") {
		t.Errorf("table3 output:\n%s", buf.String())
	}
}

// TestRunExperimentsRender runs every -exp table at a tiny size and
// compares its output byte for byte with testdata/exp/<name>.txt, so a
// refactor of the experiments that changes any number shows here. A
// deliberate change regenerates the files with
// SELFSTAB_UPDATE_GOLDEN=1 go test -run TestRunExperimentsRender ./cmd/selfstab-sim
// and its diff is reviewed.
func TestRunExperimentsRender(t *testing.T) {
	var rows []goldenRow
	for _, exp := range []string{
		"table1", "table2", "table3", "table4", "table5", "mobility",
		"stabilization", "gamma", "metrics", "orders", "daemons", "scalability",
	} {
		rows = append(rows, goldenRow{exp, []string{"-exp", exp, "-runs", "2", "-lambda", "300", "-seed", "5", "-minutes", "0.5"}})
	}
	runGolden(t, "exp", rows)
}

// goldenRow is one pinned command line: its output must equal
// testdata/<dir>/<name>.txt byte for byte.
type goldenRow struct {
	name string
	args []string
}

// runGolden runs each row as a subtest and compares its output with its
// golden file, or rewrites the file when SELFSTAB_UPDATE_GOLDEN is set.
// The outputs are compared on amd64 and 386, where CI runs them;
// elsewhere a row still has to succeed.
func runGolden(t *testing.T, dir string, rows []goldenRow) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(row.args, &buf); err != nil {
				t.Fatal(err)
			}
			if a := goruntime.GOARCH; a != "amd64" && a != "386" {
				t.Skipf("outputs are compared on amd64 and 386, where CI runs them; on %s no run has compared them yet", a)
			}
			path := filepath.Join("testdata", dir, row.name+".txt")
			if os.Getenv("SELFSTAB_UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with SELFSTAB_UPDATE_GOLDEN=1): %v", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("%v output differs from %s:\n--- got\n%s--- want\n%s", row.args, path, got, want)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-runs", "abc"}, &buf); err == nil {
		t.Error("bad flag value accepted")
	}
	if err := run([]string{"-exp", "table3", "-ranges", "zzz"}, &buf); err == nil {
		t.Error("bad ranges accepted")
	}
}

func TestRunInvalidOptions(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table3", "-runs", "0"}, &buf); err == nil {
		t.Error("zero runs accepted")
	}
}

// The scenario tests pin each subcommand row's whole report in
// testdata/scenarios/<row>.txt, regenerated like the -exp tables.

func TestRunTrafficStatic(t *testing.T) {
	runGolden(t, "scenarios", []goldenRow{
		{"traffic-static", []string{"traffic", "-nodes", "120", "-steps", "60", "-flows", "10", "-scenario", "static", "-budget", "2"}},
	})
}

func TestRunTrafficScenariosAndWorkloads(t *testing.T) {
	runGolden(t, "scenarios", []goldenRow{
		{"traffic-mobility", []string{"traffic", "-nodes", "100", "-steps", "40", "-flows", "8", "-scenario", "mobility"}},
		{"traffic-faults", []string{"traffic", "-nodes", "100", "-steps", "40", "-flows", "8", "-scenario", "faults"}},
		{"traffic-hotspot", []string{"traffic", "-nodes", "100", "-steps", "40", "-flows", "8", "-workload", "hotspot"}},
		{"traffic-cbr", []string{"traffic", "-nodes", "100", "-steps", "40", "-flows", "8", "-workload", "cbr"}},
		{"traffic-poisson", []string{"traffic", "-nodes", "100", "-steps", "40", "-flows", "8", "-workload", "poisson"}},
	})
}

func TestRunTrafficBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"traffic", "-scenario", "nope", "-nodes", "50", "-steps", "5"}, &buf); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"traffic", "-workload", "nope", "-nodes", "50", "-steps", "5"}, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"traffic", "-steps", "abc"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunUnknownNamesExitNonZero is the CLI error-surface contract,
// table-driven: an unknown subcommand, experiment, traffic/churn scenario
// or workload must come back as an error (main prints it on stderr and
// exits 1) whose message carries the usage line — and must fail fast,
// before any network is built.
func TestRunUnknownNamesExitNonZero(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring the error must carry
	}{
		{"unknown subcommand", []string{"bogus"}, "unknown subcommand"},
		{"unknown experiment", []string{"-exp", "nope"}, "unknown experiment"},
		{"retired offline energy experiment", []string{"-exp", "energy"}, "unknown experiment"},
		{"unknown traffic scenario", []string{"traffic", "-scenario", "nope"}, "unknown traffic scenario"},
		{"unknown traffic workload", []string{"traffic", "-workload", "nope"}, "unknown workload"},
		{"unknown churn scenario", []string{"churn", "-scenario", "nope"}, "unknown churn scenario"},
		{"unknown energy scenario", []string{"energy", "-scenario", "nope"}, "unknown energy scenario"},
		{"unknown scale scenario", []string{"scale", "-scenario", "nope"}, "unknown scale scenario"},
		{"scale too few nodes", []string{"scale", "-nodes", "3"}, "at least 10 nodes"},
		{"scale bad compact fraction", []string{"scale", "-compact", "1.5"}, "outside [0, 1]"},
		{"unknown serve preload", []string{"serve", "-preload", "nope"}, "unknown preload scenario"},
		{"traffic no steps", []string{"traffic", "-steps", "-5"}, "at least 1"},
		{"traffic negative rate", []string{"traffic", "-rate", "-1"}, "positive"},
		{"traffic hotspot no flows", []string{"traffic", "-workload", "hotspot", "-flows", "0"}, "-flows 0"},
		{"churn no steps", []string{"churn", "-steps", "-3"}, "at least 1"},
		{"churn flows at zero rate", []string{"churn", "-flows", "4", "-rate", "0"}, "positive"},
		{"energy no steps", []string{"energy", "-steps", "-1"}, "at least 1"},
		{"energy one node", []string{"energy", "-nodes", "1"}, "at least 2 nodes"},
		{"energy sources at zero rate", []string{"energy", "-rate", "0"}, "positive"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tt.args, &buf)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want usage error", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("run(%v) error %q, want it to mention %q", tt.args, err, tt.want)
			}
			if !strings.Contains(err.Error(), "usage: selfstab-sim") {
				t.Errorf("run(%v) error %q lacks the usage line", tt.args, err)
			}
			if buf.Len() != 0 {
				t.Errorf("run(%v) wrote %q to stdout on a usage error", tt.args, buf.String())
			}
		})
	}
}

// TestRunChurnScenarios drives the churn subcommand end to end on small
// networks; each run ends with Verify on the re-stabilized survivors.
func TestRunChurnScenarios(t *testing.T) {
	runGolden(t, "scenarios", []goldenRow{
		{"churn-steady", []string{"churn", "-nodes", "80", "-steps", "40", "-arrival", "0.2", "-departure", "0.2",
			"-crash", "0.3", "-sleep", "0.3", "-sleepsteps", "6", "-scenario", "steady"}},
		{"churn-burst", []string{"churn", "-nodes", "80", "-steps", "40", "-crash", "0.5", "-scenario", "burst"}},
		{"churn-blackout", []string{"churn", "-nodes", "80", "-steps", "40", "-scenario", "blackout", "-flows", "4"}},
	})
}

// TestRunChurnBadFlags: malformed flag values exit non-zero.
func TestRunChurnBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"churn", "-steps", "abc"}, &buf); err == nil {
		t.Error("bad churn flag accepted")
	}
	if err := run([]string{"churn", "-nodes", "50", "-steps", "5", "-crash", "-2"}, &buf); err == nil {
		t.Error("negative churn rate accepted")
	}
}

// TestRunScaleScenarios drives the scale subcommand end to end on small
// networks (this gates wiring, not timing).
func TestRunScaleScenarios(t *testing.T) {
	for _, tt := range []struct {
		args []string
		want []string
	}{
		{[]string{"scale", "-nodes", "400", "-steps", "30", "-scenario", "quiescent"},
			[]string{"cold stabilize", "quiescent step", "frontier stepping"}},
		{[]string{"scale", "-nodes", "400", "-steps", "60", "-scenario", "churn",
			"-churnrate", "0.005", "-compact", "0.2"},
			[]string{"churn step", "slots", "auto-compact"}},
	} {
		var buf bytes.Buffer
		if err := run(tt.args, &buf); err != nil {
			t.Errorf("%v: %v", tt.args, err)
			continue
		}
		out := buf.String()
		for _, want := range tt.want {
			if !strings.Contains(out, want) {
				t.Errorf("%v output lacks %q:\n%s", tt.args, want, out)
			}
		}
	}
}

// TestRunChurnBadRatesFailFast: invalid rates are rejected before any
// network is built, in every scenario — including blackout, which never
// attaches the schedule.
func TestRunChurnBadRatesFailFast(t *testing.T) {
	for _, args := range [][]string{
		{"churn", "-scenario", "blackout", "-crash", "-1"},
		{"churn", "-scenario", "blackout", "-sleepsteps", "-5"},
		{"churn", "-scenario", "burst", "-departure", "-0.5"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) accepted an invalid churn config", args)
		}
	}
}

// TestRunServeBadArgs is the serve subcommand's validation contract,
// table-driven: every malformed flag combination fails fast with the
// usage line — before any world is built or port bound — and writes
// nothing to stdout.
func TestRunServeBadArgs(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"too few nodes", []string{"serve", "-nodes", "1"}, "at least 2 nodes"},
		{"zero sps", []string{"serve", "-sps", "0"}, "must be positive"},
		{"negative sps", []string{"serve", "-sps", "-3"}, "must be positive"},
		{"bad range", []string{"serve", "-range", "0"}, "outside (0, 1]"},
		{"range above one", []string{"serve", "-range", "1.5"}, "outside (0, 1]"},
		{"zero cachettl", []string{"serve", "-cachettl", "0"}, "at least 1"},
		{"unknown preload", []string{"serve", "-preload", "storm"}, "unknown preload scenario"},
		{"empty addr", []string{"serve", "-addr", ""}, "must not be empty"},
		{"drain without dir", []string{"serve", "-drain-snapshot"}, "requires -snapshot-dir"},
		{"restore plus nodes", []string{"serve", "-restore", "x.json", "-nodes", "100"}, "conflicts"},
		{"restore plus seed", []string{"serve", "-restore", "x.json", "-seed", "2"}, "conflicts"},
		{"restore plus preload", []string{"serve", "-restore", "x.json", "-preload", "churn"}, "conflicts"},
		{"positional argument", []string{"serve", "leftover"}, "unexpected argument"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tt.args, &buf)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want usage error", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("run(%v) error %q, want it to mention %q", tt.args, err, tt.want)
			}
			if !strings.Contains(err.Error(), "usage: selfstab-sim") {
				t.Errorf("run(%v) error %q lacks the usage line", tt.args, err)
			}
			if buf.Len() != 0 {
				t.Errorf("run(%v) wrote %q to stdout on a usage error", tt.args, buf.String())
			}
		})
	}
	// Malformed flag values come back from the flag package itself.
	var buf bytes.Buffer
	if err := run([]string{"serve", "-sps", "abc"}, &buf); err == nil {
		t.Error("bad serve flag accepted")
	}
	// A missing restore file fails after validation, at open time.
	if err := run([]string{"serve", "-restore", "/nonexistent/snap.json"}, &buf); err == nil {
		t.Error("missing restore file accepted")
	}
}

// TestServeHTTPServerTimeouts: the served API drops a connection that
// never finishes its request header and a keep-alive connection left idle
// after a request, and sets no write timeout, because GET /events streams
// for as long as its subscriber stays.
func TestServeHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, want readHeaderTimeout (%v) > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout %v, want idleTimeout (%v) > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut the /events stream", srv.WriteTimeout)
	}
	// Shortened so the test need not wait the real timeouts out.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	srv.IdleTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	stalled := dial()
	defer stalled.Close()
	fmt.Fprint(stalled, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n") // the header never ends
	if _, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("a stalled request header kept its connection open: %v", err)
	}

	idle := dial()
	defer idle.Close()
	fmt.Fprint(idle, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Close {
		t.Fatal("the server closed the connection after one request; keep-alive is not exercised")
	}
	if _, err := io.ReadAll(br); err != nil {
		t.Fatalf("an idle keep-alive connection stayed open: %v", err)
	}
}

// TestRunEnergyScenarios drives the energy subcommand end to end on small
// networks.
func TestRunEnergyScenarios(t *testing.T) {
	runGolden(t, "scenarios", []goldenRow{
		{"energy-lifetime", []string{"energy", "-nodes", "100", "-steps", "60", "-sources", "10", "-scenario", "lifetime", "-capacity", "0.2"}},
		{"energy-rotation", []string{"energy", "-nodes", "100", "-steps", "60", "-sources", "10", "-scenario", "rotation", "-capacity", "0.2"}},
		{"energy-sleep-savings", []string{"energy", "-nodes", "100", "-steps", "60", "-sources", "0", "-scenario", "sleep-savings"}},
	})
}

// TestRunEnergyBadArgs: malformed names and magnitudes fail fast with the
// usage line, before any network is built.
func TestRunEnergyBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"energy", "-scenario", "nope"},
		{"energy", "-capacity", "-1"},
		{"energy", "-capacity", "0"},
		{"energy", "-sources", "-3"},
		{"energy", "-levels", "1"},
		{"energy", "-levels", "2000"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) accepted an invalid energy config", args)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"energy", "-steps", "abc"}, &buf); err == nil {
		t.Error("bad energy flag accepted")
	}
}

// TestRunTraceValidation: every bad trace flag exits with a usage error
// before any world is built.
func TestRunTraceValidation(t *testing.T) {
	for _, args := range [][]string{
		{"trace", "-nodes", "1"},
		{"trace", "-steps", "0"},
		{"trace", "-range", "0"},
		{"trace", "-range", "1.5"},
		{"trace", "-cachettl", "0"},
		{"trace", "-scenario", "bogus"},
		{"trace", "extra-arg"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunTraceStdout records a small mixed run and checks the trace is
// valid Chrome trace JSON with one span per recorded step.
func TestRunTraceStdout(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"trace", "-nodes", "60", "-range", "0.2", "-steps", "25", "-scenario", "mixed"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	steps := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Name == "step" {
			steps++
		}
	}
	if steps != 25 {
		t.Errorf("trace has %d step spans, want 25", steps)
	}
}

// TestRunTraceFile writes the trace to -o and prints a summary line.
func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run([]string{"trace", "-nodes", "60", "-range", "0.2", "-steps", "10", "-scenario", "none", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote 10 step records") {
		t.Errorf("missing summary line: %q", buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Errorf("trace file is not valid JSON")
	}
}
