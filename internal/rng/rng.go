// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// Reproducibility is a hard requirement for the experiments: every run of an
// experiment with the same seed must produce the same graphs, the same color
// choices, and therefore the same tables. The standard library's math/rand is
// adequate for single streams, but the distributed simulator needs one
// independent stream per node whose values do not depend on the order in
// which nodes are stepped. rng.Source is a SplitMix64 generator: cheap,
// allocation-free, passes BigCrush-level smoke tests for our purposes, and
// splittable via Split, which derives an independent child stream from a
// parent deterministically.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source. The zero value is a valid
// generator seeded with 0; prefer New so that distinct seeds are well mixed.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield streams that
// are independent for all practical purposes because the output function
// mixes the counter through two rounds of 64-bit finalization.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden is the SplitMix64 increment (odd, derived from the golden ratio).
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a child Source from s. The child's stream is independent of
// the parent's subsequent outputs: it is seeded from the parent's next output
// mixed with a distinct constant so that Split(); Uint64() and
// Uint64(); Split() do not alias.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64() ^ 0x6a09e667f3bcc909}
}

// SplitN derives n child sources, one per index, deterministically.
// Children are pairwise independent streams; child i depends only on the
// parent state at call time and on i.
func (s *Source) SplitN(n int) []*Source {
	base := s.Uint64()
	kids := make([]*Source, n)
	for i := range kids {
		kids[i] = &Source{state: mix(base, uint64(i))}
	}
	return kids
}

// mix combines two words into a well-distributed seed.
func mix(a, b uint64) uint64 {
	z := a + golden*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and avoids division
	// in the common case.
	un := uint64(n)
	for {
		hi, lo := bits.Mul64(s.Uint64(), un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// Bool returns a uniformly random boolean.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}
