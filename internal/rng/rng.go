// Package rng provides deterministic random-number plumbing for the
// simulator. Every experiment receives a single master seed; independent
// subsystems (deployment, radio losses, daemon scheduling, mobility, DAG
// color draws) derive their own streams with Split so that changing the
// number of draws in one subsystem never perturbs another. This is what
// makes the per-table experiments reproducible run-to-run.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic stream of pseudo-random numbers. It wraps
// math/rand.Rand so downstream packages depend on this narrow type rather
// than on global rand state (the simulator never touches the global source).
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream identified by label. Two Splits
// of the same parent with different labels yield uncorrelated streams; the
// same label always yields the same stream for a given parent seed.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	// Mix the label hash with a draw from the parent so distinct parents
	// with the same label also diverge.
	return New(int64(h.Sum64()) ^ s.r.Int63())
}

// SplitN derives the i-th child stream of a labeled family, e.g. one stream
// per simulation run or per node.
func (s *Source) SplitN(label string, i int) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var buf [8]byte
	for b := 0; b < 8; b++ {
		buf[b] = byte(i >> (8 * b))
	}
	_, _ = h.Write(buf[:])
	return New(int64(h.Sum64()) ^ s.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform value in [0, n). n must be > 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (s *Source) ExpFloat64() float64 { return s.r.ExpFloat64() }

// NormFloat64 returns a standard normal value.
func (s *Source) NormFloat64() float64 { return s.r.NormFloat64() }

// Poisson draws a Poisson-distributed integer with the given mean. For small
// means it uses Knuth's product method; for large means (as with the paper's
// lambda = 1000 deployments) it switches to the normal approximation, which
// is accurate to well under one node at that scale.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		// Knuth: multiply uniforms until the product drops below e^-mean.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction.
	v := mean + float64(s.NormFloat64()*math.Sqrt(mean)) + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}
