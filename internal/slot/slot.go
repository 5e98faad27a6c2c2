// Package slot owns the dead-slot remap: the rule by which every dense
// per-node array in the stack drops recycled index slots and renumbers
// its survivors.
//
// A Remap is monotone by construction — survivors keep their relative
// order — which is what makes a compacted execution bit-identical to an
// uncompacted one: every index-ordered loop visits the survivors in the
// same sequence either way. Every structure that caches node indices
// compacts with the same Remap in the same quiet instant between steps:
// per-slot arrays through Apply, index lists through Renumber, single
// indices through Of.
package slot

import "fmt"

// Remap is one dead-slot recycling plan. Only Plan builds one.
type Remap struct {
	to   []int32 // to[old] is the survivor's new index, -1 if dropped
	kept int     // survivor count
}

// Plan builds the remap over n slots that drops every slot i for which
// drop(i) holds and numbers the survivors 0, 1, ... in their old order.
func Plan(n int, drop func(i int) bool) Remap {
	to, kept := make([]int32, n), 0
	for i := range to {
		if drop(i) {
			to[i] = -1
			continue
		}
		to[i] = int32(kept)
		kept++
	}
	return Remap{to: to, kept: kept}
}

// N returns the survivor count: the slot count after the remap.
func (r Remap) N() int { return r.kept }

// Dropped returns how many slots the remap drops.
func (r Remap) Dropped() int { return len(r.to) - r.kept }

// Of returns old slot i's new index, or -1 if the remap drops it.
func (r Remap) Of(i int) int { return int(r.to[i]) }

// Check reports an error unless the remap covers exactly n slots; what
// names the caller's package and its slots.
func (r Remap) Check(what string, n int) error {
	if n != len(r.to) {
		return fmt.Errorf("%s: remap over %d slots applied to %d", what, len(r.to), n)
	}
	return nil
}

// Apply compacts the per-slot array s in place: each survivor moves to
// its new index, the dropped tail of the backing array is cleared so no
// reference outlives its slot, and s is truncated to N. A nil s stays
// nil. It panics unless s has one entry per old slot: a mis-sized
// per-slot array is a bug in its owner.
func Apply[T any](r Remap, s []T) []T {
	if s == nil {
		return nil
	}
	if err := r.Check("slot", len(s)); err != nil {
		panic(err)
	}
	// The remap is monotone, so no survivor is overwritten before it moves.
	for old, nw := range r.to {
		if nw >= 0 {
			s[nw] = s[old]
		}
	}
	clear(s[r.kept:])
	return s[:r.kept]
}

// Renumber renumbers the index list xs in place: every entry takes its
// new index, entries the remap drops leave the list, and the rest keep
// their list order.
func Renumber[I ~int | ~int32](r Remap, xs []I) []I {
	kept := 0
	for _, x := range xs {
		if nw := r.to[x]; nw >= 0 {
			xs[kept] = I(nw)
			kept++
		}
	}
	return xs[:kept]
}
