package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"selfstab"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as the last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run: its inputs, its spans, and the
// operations and metrics it has recorded so far.
type run struct {
	workload string
	seed     int64
	seconds  float64 // the window's time budget; counts scale with it
	traced   bool
	scale    float64 // world and count scale; 1 except in the smoke test
	outDir   string  // where the traced run writes its trace

	tr         *tracer
	attempted  int
	failed     int
	metrics    map[string]metric
	digest     uint64 // sim_digest of the world at the end of the window
	unresolved string // why the result cannot be trusted, if it cannot
}

func newRun(workload string, seed int64, seconds float64, traced bool) *run {
	return &run{workload: workload, seed: seed, seconds: seconds, traced: traced, scale: 1,
		tr: newTracer(), metrics: map[string]metric{}}
}

func (r *run) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation and, when err is not nil, one failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: failed: %v\n", r.workload, err)
	}
}

// check counts one correctness check.
func (r *run) check(ok bool, format string, a ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check: "+format, a...)
	}
	r.op(err)
}

// span times fn as a child of the innermost open span.
func (r *run) span(name string, fn func()) time.Duration {
	r.tr.begin(name)
	fn()
	return r.tr.end()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by nearest rank: the smallest
// value with at least a share q of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// simDigest is FNV-64 over the step count, every node's state and the
// convergence, traffic and energy ledgers. Every field it covers is
// bit-identical for a seed by the repo's determinism contract.
func simDigest(net *selfstab.Network) (uint64, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "step %d nodes %d\n", net.StepCount(), net.N())
	for i := 0; i < net.N(); i++ {
		st, err := net.State(i)
		if err != nil {
			return 0, fmt.Errorf("digest: %w", err)
		}
		fmt.Fprintf(h, "%d %x %x %x %d %d %d %t %d\n", st.ID,
			math.Float64bits(st.Position.X), math.Float64bits(st.Position.Y), math.Float64bits(st.Density),
			st.HeadID, st.ParentID, st.Color, st.IsHead, st.Status)
	}
	fmt.Fprintf(h, "%+v\n", net.ConvergenceStats())
	if ts, err := net.TrafficStats(); err == nil {
		fmt.Fprintf(h, "%+v\n", ts)
	}
	if es, err := net.EnergyStats(); err == nil {
		fmt.Fprintf(h, "%+v\n", es)
	}
	return h.Sum64(), nil
}

// trafficIdentity checks the ledger's accounting identity: every offered
// packet is delivered, dropped for a stated reason, or still in flight.
func trafficIdentity(ts selfstab.TrafficStats) bool {
	return ts.Offered == ts.Delivered+ts.DropsQueue+ts.DropsNoRoute+ts.DropsTTL+
		ts.DropsDeadEndpoint+ts.DropsAdmission+ts.DropsRateLimit+ts.InFlight
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memDelta is what the Go runtime did between two MemStats readings.
type memDelta struct {
	allocs, bytes, gcCycles float64
	gcPauseMs, heapMB       float64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocs:    float64(after.Mallocs - before.Mallocs),
		bytes:     float64(after.TotalAlloc - before.TotalAlloc),
		gcCycles:  float64(after.NumGC - before.NumGC),
		gcPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		heapMB:    float64(after.HeapInuse) / (1 << 20),
	}
}

// provenance is stamped into every output: results at different
// GOMAXPROCS, hosts or commits are never compared.
func provenance() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d",
		commit, runtime.Version(), cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}
