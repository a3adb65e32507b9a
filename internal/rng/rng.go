// Package rng provides the randomness substrates of the reproduction.
//
// The paper presumes an on-chip ring-oscillator TRNG as the source of the
// encoding bit λ. Physical oscillators do not exist in a simulation, so
// this package supplies (a) a behavioural ring-oscillator TRNG model with
// jitter, bias, a von Neumann corrector and the standard NIST SP 800-90B
// style health tests, exercising the same interface a hardware TRNG driver
// would; and (b) a small deterministic xoshiro256** PRNG used to make every
// experiment in the repository reproducible from a seed.
package rng

import "fmt"

// Source yields random bits; both the TRNG model and the deterministic
// PRNG implement it, and the countermeasure harnesses accept either.
type Source interface {
	// Bits returns n random bits (1..64) in the low bits of the result.
	Bits(n int) uint64
}

// --- deterministic PRNG -------------------------------------------------

// Xoshiro is the xoshiro256** deterministic generator; it implements
// Source and is the reproducible default for all experiments.
type Xoshiro struct {
	s [4]uint64
}

// NewXoshiro seeds the generator from a single word via SplitMix64, which
// guarantees a non-zero state.
func NewXoshiro(seed uint64) *Xoshiro {
	x := &Xoshiro{}
	x.Reseed(seed)
	return x
}

// Reseed re-initialises the generator in place, exactly as NewXoshiro seeds
// a fresh one: the subsequent output stream is identical. Campaign workers
// reuse one generator each to keep the batch hot path allocation-free.
func (x *Xoshiro) Reseed(seed uint64) {
	sm := seed
	for i := range x.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		x.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit output.
func (x *Xoshiro) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Bits implements Source.
func (x *Xoshiro) Bits(n int) uint64 {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("rng: Bits(%d) out of range", n))
	}
	if n == 64 {
		return x.Uint64()
	}
	return x.Uint64() & (1<<uint(n) - 1)
}

// Intn returns a uniform integer in [0, n).
func (x *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	// Rejection sampling over the smallest covering power of two.
	bits := 0
	for 1<<uint(bits) < n {
		bits++
	}
	for {
		v := int(x.Bits(max(bits, 1)))
		if v < n {
			return v
		}
	}
}

// Fork derives an independent generator; campaigns fork one per worker.
func (x *Xoshiro) Fork() *Xoshiro {
	return NewXoshiro(x.Uint64())
}
