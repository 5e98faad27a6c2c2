// Package runtime executes the paper's protocol stack as an actual
// message-passing system: nodes repeatedly broadcast their shared variables
// (DAG color, density, cluster-head) over a lossy radio medium, cache what
// they hear from neighbors, and evaluate the guarded assignments N1
// (constant-height DAG construction), R1 (density computation) and R2
// (cluster-head selection) against those caches. Time advances in the
// paper's Δ(τ) steps: one local broadcast per node per step.
//
// The package is the testbed for the self-stabilization claims: state and
// caches can be corrupted arbitrarily (transient faults) and the system
// must return to a legitimate configuration — matching the static oracle in
// package cluster — within a bounded expected number of steps.
//
// # Why there is no tiling
//
// The worklist expansion used to be shardable over k region tiles with a
// halo exchange (WithTiles, default min(GOMAXPROCS, N/2048)). It was
// measured at GOMAXPROCS 2 and deleted. Tiles sharded only the
// expansion: traced with tiles on, runtime.halo_us was 95 of 1 627 µs of
// a churn step (5.8 %) and 143 of 6 343 µs of a heal step (2.2 %), while
// ingest, which the flat worker split already parallelises, is 83–89 %.
// No tile count beat one tile: at 100k nodes with k nodes re-scaled per
// step, tiles 1 / 2 / 4 read (ms/op) k=100 0.38–0.46 / 0.42–0.71 /
// 0.41–0.63, k=5 000 15.2–18.2 / 16.6–17.6 / 15.5–16.4, k=20 000
// 38.8–40.3 / 39.0–41.6 / 44.3–47.0, k=45 000 31.3–33.8 / 30.0–30.7 /
// 30.9–32.8. Deleting it left sim_digest identical on heal, churn,
// dataplane and mixed, and paired bench/run.sh runs overlap on every
// end-to-end metric (all runs: CHANGES.md, the entry that deletes
// WithTiles). The worklist and the flat worker split (HealRound10k
// 1.2–1.4× on two workers) stay. A snapshot carrying "tiles": k still
// decodes and re-encodes verbatim; nothing acts on it.
package runtime

// NbrValue is what a node relays about one cached neighbor's shared
// variables under the Section 4.3 fusion rule. It is the only part of a
// relayed list that a head or density change at that neighbor alters.
type NbrValue struct {
	TieID   int64
	Density float64
	HeadID  int64
}

// NbrList is one published generation of a node's relayed 2-hop
// knowledge — exactly what some guard of the configured protocol reads:
//
//   - IDs, always: the identifiers of the sender's cached neighbors,
//     id-sorted. Guard R1 (Definition 1) counts links from identifiers
//     alone, so this slice changes only when the sender's neighbor SET does.
//   - Vals, only when Protocol.Fusion is set: each listed neighbor's tie
//     identifier, density and head, parallel to IDs. The fusion branch of
//     guard R2 is the one reader of relayed values; without it they are
//     not published (Vals stays nil), and a head or density change at a
//     node wakes the 1-hop neighborhood that can observe it, not the 2-hop
//     one.
//
// A published NbrList is IMMUTABLE: fillFrame allocates a fresh one only
// when its content changed, and never writes into one it already
// published. Receivers rely on that to cache the list by reference — one
// shared allocation per sender generation instead of a deep copy per
// receiver — and to recognize "the list I already hold" by pointer
// identity. An old alias stays valid forever, and anything that wants to
// mutate a list it did not just allocate (fault injection, tests) must
// copy it first. The nil list is the empty list.
type NbrList struct {
	IDs  []int64
	Vals []NbrValue
}

func (l *NbrList) ids() []int64 {
	if l == nil {
		return nil
	}
	return l.IDs
}

func (l *NbrList) vals() []NbrValue {
	if l == nil {
		return nil
	}
	return l.Vals
}

// Frame is one broadcast: the sender's shared variables plus its current
// relayed list. The scalar header fields live in a reusable arena (one
// outgoing frame per sender, rewritten in place between steps); Nbrs
// points at the sender's current published NbrList.
type Frame struct {
	ID      int64
	TieID   int64
	Density float64
	HeadID  int64
	Nbrs    *NbrList
}
