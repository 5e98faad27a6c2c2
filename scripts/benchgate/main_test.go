package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMediansReadProvenance: a baseline that carries the Go version and
// the CPU model yields them with its medians.
func TestMediansReadProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_step.json")
	doc := `{"commit": "abc1234", "gomaxprocs": 2, "goversion": "go1.24.0", "cpumodel": "Intel(R) Xeon(R) Processor", "samples": [
  {"package": "selfstab", "name": "BenchmarkStep1000", "iterations": 10, "ns_per_op": 30},
  {"package": "selfstab", "name": "BenchmarkStep1000", "iterations": 10, "ns_per_op": 10},
  {"package": "selfstab", "name": "BenchmarkStep1000", "iterations": 10, "ns_per_op": 20}
]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, med, err := medians(path)
	if err != nil {
		t.Fatal(err)
	}
	got.Samples = nil
	want := benchFile{Commit: "abc1234", GoMaxProcs: 2, GoVersion: "go1.24.0", CPUModel: "Intel(R) Xeon(R) Processor"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("header %+v, want %+v", got, want)
	}
	if got := med["selfstab BenchmarkStep1000"]; got != 20 {
		t.Errorf("median %v, want 20", got)
	}
}
