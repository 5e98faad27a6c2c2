package runtime

import (
	"fmt"
	"testing"

	"selfstab/internal/cluster"
)

// TestHeadBitsMatchNodes: the engine's dense head bits are a mirror, so
// after every operation and every single step of a mixed engine trace —
// corruption (including garbage heads), cold restarts by Reboot and
// Evict, sleep and wake, Append, Kill and Compact — head[i] must equal
// nodes[i].IsHead() for every slot, dead and sleeping ones included. The
// trace ends with two whole-population corruptions, so at 4 workers the
// guard phase that writes the bits runs on the parallel path.
func TestHeadBitsMatchNodes(t *testing.T) {
	proto := Protocol{Order: cluster.OrderBasic, CacheTTL: 4}
	const n, r, seed = 200, 0.12, 7000
	trace := buildTraceKinds(t, seed, n, r, proto, 80, 10)
	for round := 0; round < 2; round++ {
		trace = append(trace, traceOp{kind: "corrupt", frac: 1}, traceOp{kind: "step", steps: 3})
	}
	kinds := map[string]bool{}
	for _, op := range trace {
		kinds[op.kind] = true
	}
	for _, k := range []string{"corrupt", "reboot", "evict", "sleep", "wake", "append", "kill", "compact"} {
		if !kinds[k] {
			t.Fatalf("trace has no %q op", k)
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			tw := newTwin(t, seed, n, r, proto, true, workers)
			check := func(label string) {
				t.Helper()
				if len(tw.e.head) != len(tw.e.nodes) {
					t.Fatalf("%s: %d head bits for %d slots", label, len(tw.e.head), len(tw.e.nodes))
				}
				for i, nd := range tw.e.nodes {
					if tw.e.IsHead(i) != nd.IsHead() {
						t.Fatalf("%s: slot %d (%s) head bit %v, node says %v",
							label, i, tw.e.Status(i), tw.e.IsHead(i), nd.IsHead())
					}
				}
			}
			check("construction")
			for k, op := range trace {
				if op.kind != "step" {
					tw.apply(t, op)
					check(fmt.Sprintf("op %d (%s)", k, op.kind))
					continue
				}
				for s := 0; s < op.steps; s++ {
					tw.apply(t, traceOp{kind: "step", steps: 1})
					check(fmt.Sprintf("op %d step %d", k, s))
				}
			}
		})
	}
}
