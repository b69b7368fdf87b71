// Package rng provides a small, fully deterministic random number suite for
// the simulator. Every stochastic choice in an experiment flows through a
// seeded *Source, so a (seed, parameters) pair identifies a run exactly —
// the property the test suite and the multi-run experiment harness rely on.
//
// The generator is xoshiro256**, seeded via splitmix64, with samplers for
// the distributions the simulator draws from: uniform, Bernoulli,
// exponential (Poisson inter-arrival times) and weighted choice.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random generator. It is not safe for
// concurrent use; give each goroutine its own Source (see Split).
type Source struct {
	s [4]uint64
}

// State returns the generator's raw xoshiro256** state, for checkpointing.
// Restoring it with FromState yields a Source that continues the exact
// stream this one would have produced.
func (r *Source) State() [4]uint64 { return r.s }

// FromState reconstructs a Source from a state captured with State.
func FromState(s [4]uint64) *Source { return &Source{s: s} }

// SetState overwrites the generator's state in place, for restoring a
// checkpoint into a Source that other components already hold a pointer to.
func (r *Source) SetState(s [4]uint64) { r.s = s }

// New returns a Source seeded from the given seed. Distinct seeds give
// independent-looking streams; seed 0 is valid.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitmix64(sm)
	}
	return &src
}

// splitmix64 advances the splitmix64 state and returns the new state and
// output. It is the recommended seeder for xoshiro generators.
func splitmix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Split derives an independent child Source. The child's stream is a
// deterministic function of the parent's state at the time of the call, so
// fan-out (e.g. one Source per simulated peer or per experiment replica)
// remains reproducible.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// DeriveSeed is the keyed split: it maps a (root, key) pair to the seed of
// an independent child stream, as a pure function of the pair. Unlike
// Split, no generator state is consumed, so the derivation is immune to
// draw order — the property the distributed experiment harness relies on
// to give work unit k the same stream no matter which worker runs it, or
// in what order. For a fixed root, distinct keys always yield distinct
// seeds (the key enters through a bijective mix).
func DeriveSeed(root, key uint64) uint64 {
	// Hash the root once, fold the key in through an odd-multiplier
	// (bijective) golden-ratio spread, and finalize with a second
	// splitmix64 round.
	_, a := splitmix64(root)
	_, out := splitmix64(a ^ (0x9e3779b97f4a7c15 * (key + 1)))
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method (unbiased). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed sample with rate lambda (mean
// 1/lambda). It panics if lambda <= 0. Used for Poisson-process
// inter-arrival times of new peers.
func (r *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// Pick returns a uniformly chosen element index from a weighted set where
// weights[i] >= 0. It panics if the total weight is not positive.
func (r *Source) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Pick with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Pick with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
