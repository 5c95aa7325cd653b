// Package prng provides a small deterministic pseudo-random number generator
// used by every scheduler and adversary in the reproduction. Runs must be a
// pure function of (protocol, parameters, adversary, seed), so we implement
// our own generator (splitmix64 seeding a xoshiro256**) rather than depend on
// math/rand, whose stream is not guaranteed stable across Go releases.
package prng

import "math/bits"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New, or seed a Source value with Reset.
type Source struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, as recommended by
// the xoshiro authors (Blackman & Vigna). Distinct seeds give uncorrelated
// streams; the same seed always gives the same stream.
func New(seed uint64) *Source {
	var src Source
	src.Reset(seed)
	return &src
}

// Reset reseeds s in place: afterwards s yields the stream New(seed) would.
// A Source kept in a table or an arena is split from a parent by
// s.Reset(parent.Uint64()), which gives each process or subsystem its own
// stream, so that adding randomness in one place does not perturb another's
// sequence, without allocating a generator per stream.
func (s *Source) Reset(seed uint64) {
	sm := seed
	for i := range s.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
	// A xoshiro state of all zeros is invalid; splitmix64 of any seed never
	// produces it, but guard anyway so the invariant is local.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics; schedulers never call it with an empty choice set.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	return s.PermInto(nil, n)
}

// PermInto fills p[:n] with a random permutation of [0, n), reusing p's
// backing array when it has capacity (hot sweep loops call this once per
// run). It consumes exactly the same draws as Perm, so swapping one for the
// other never perturbs a seeded stream.
func (s *Source) PermInto(p []int, n int) []int {
	if cap(p) < n {
		p = make([]int, n)
	}
	p = p[:n]
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns a uniform random boolean.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// MixSeed folds each value into h through a full splitmix64 step, producing
// a well-distributed seed from structured coordinates (node ids, instance
// ids, grid cells). Unlike XOR or linear folding, the finalizer avalanches
// every input bit, so distinct coordinate tuples cannot cancel each other
// into colliding — and therefore stream-identical — seeds.
func MixSeed(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		h += 0x9e3779b97f4a7c15
		h ^= v
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
