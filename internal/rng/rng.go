// Package rng provides deterministic, hierarchically derivable pseudo-random
// number streams for the simulation stack.
//
// Every stochastic quantity in the repository (per-cell RowHammer thresholds,
// retention times, Monte-Carlo circuit parameters, measurement noise) is drawn
// from a Stream derived from a stable chain of labels, e.g.
//
//	rng.New(seed).Derive("module", "B3").Derive("bank", 0).Derive("row", 4711)
//
// so that re-running any experiment reproduces identical numbers regardless of
// execution order or concurrency. The generator is xoshiro256++ seeded through
// splitmix64, both public-domain algorithms with well-studied statistical
// quality; no math/rand global state is ever used.
package rng

import (
	"fmt"
	"math"
)

// Stream is a deterministic pseudo-random number generator. The zero value is
// not useful; construct streams with New or Derive. A Stream is NOT safe for
// concurrent use; derive one stream per goroutine instead.
type Stream struct {
	s [4]uint64
}

// New returns a Stream seeded from the given 64-bit seed using splitmix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		st.s[i] = z ^ (z >> 31)
	}
	return &st
}

// FNV-1a 64-bit parameters (the hash Derive folds its labels through).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Derive returns a new independent Stream identified by the given label parts.
// Derivation is stable: the same parent seed and labels always produce the
// same child stream. Labels may be strings, integers, or floats; any other
// type is hashed through its fmt.Sprint form.
//
// The child seed is the FNV-1a hash of the parent state (four little-endian
// words) followed by each label's bytes and a 0x1f separator: strings as-is,
// integers and floats as eight little-endian bytes.
func (s *Stream) Derive(labels ...any) *Stream {
	h := uint64(fnvOffset64)
	for _, st := range s.s {
		h = fnvUint64(h, st)
	}
	for _, l := range labels {
		switch v := l.(type) {
		case string:
			h = fnvString(h, v)
		case int:
			h = fnvUint64(h, uint64(int64(v)))
		case int64:
			h = fnvUint64(h, uint64(v))
		case uint64:
			h = fnvUint64(h, v)
		case float64:
			h = fnvUint64(h, math.Float64bits(v))
		default:
			h = fnvString(h, fmt.Sprint(v))
		}
		h = (h ^ 0x1f) * fnvPrime64 // separator so ("ab","c") != ("a","bc")
	}
	return New(h)
}

// fnvUint64 folds the eight little-endian bytes of v into the FNV-1a hash h.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// fnvString folds the bytes of v into the FNV-1a hash h.
func fnvString(h uint64, v string) uint64 {
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * fnvPrime64
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256++).
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s[0]+s.s[3], 23) + s.s[0]
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; callers control n so this indicates a programmer error.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := s.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1, w2 := t&mask32, t>>32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Normal returns a normal variate with the given mean and standard deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)), i.e. a log-normally distributed
// variate parameterized by the underlying normal's mu and sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate).
func (s *Stream) Exp(rate float64) float64 {
	return -math.Log(1-s.Float64()) / rate
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of the first n elements using the
// provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
