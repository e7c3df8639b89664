// Package rng provides reproducible pseudo-random number generation and
// random-variate generation for the discrete-event simulation models in this
// repository.
//
// The paper's substrate (SES/Workbench) drove its statistical parametric
// models from independent, seedable random streams. We reproduce that with a
// PCG-XSL-RR 128/64 generator (O'Neill, 2014) implemented from scratch on two
// uint64 halves, plus SplitMix64 for seeding and cheap auxiliary streams.
// Every model in this repository takes an explicit *rng.Stream so experiments
// are deterministic given a seed.
package rng

import (
	"math"
	"math/bits"
)

// multiplier for the 128-bit PCG LCG step (PCG_DEFAULT_MULTIPLIER_128).
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
)

// Stream is a deterministic pseudo-random stream. It implements the
// PCG-XSL-RR 128/64 generator: a 128-bit linear congruential state advanced
// per output, with an xor-shift-low + random-rotate output function yielding
// 64 bits per step. Distinct stream increments give statistically
// independent sequences from the same seed.
//
// The zero value is not ready for use; construct streams with New or
// NewWithStream.
type Stream struct {
	hi, lo   uint64 // 128-bit LCG state
	incHi    uint64 // stream increment (must be odd in the low half)
	incLo    uint64
	haveNorm bool    // cached second normal variate (polar method)
	norm     float64 // the cached variate
}

// New returns a Stream seeded with seed on the default stream (stream 0).
func New(seed uint64) *Stream { return NewWithStream(seed, 0) }

// NewWithStream returns a Stream seeded with seed on the given stream
// number. Streams with different ids are independent even for equal seeds.
func NewWithStream(seed, stream uint64) *Stream {
	s := &Stream{}
	s.Reseed(seed, stream)
	return s
}

// Reseed re-initializes s in place, exactly as NewWithStream(seed, stream)
// would, but without allocating. It is the tool for keeping per-entity
// streams in a value slab that model loops reuse across runs and
// replications instead of allocating one Stream per entity per run.
func (s *Stream) Reseed(seed, stream uint64) {
	sm := SplitMix64{State: seed}
	// Derive the 128-bit increment from the stream id; force it odd.
	sm2 := SplitMix64{State: stream ^ 0x9e3779b97f4a7c15}
	s.incHi = sm2.Next()
	s.incLo = sm2.Next() | 1
	s.haveNorm, s.norm = false, 0
	// Standard PCG seeding: state = 0, advance, add seed material, advance.
	s.hi, s.lo = 0, 0
	s.step()
	s.lo, s.hi = add128(s.lo, s.hi, sm.Next(), sm.Next())
	s.step()
}

// Split returns a new Stream derived deterministically from s; the returned
// stream is independent of the future output of s. It is the idiomatic way
// to hand sub-models their own streams.
func (s *Stream) Split() *Stream {
	return NewWithStream(s.Uint64(), s.Uint64()|1)
}

// step advances the 128-bit LCG state.
func (s *Stream) step() {
	// state = state*mul + inc (mod 2^128)
	lo, hi := mul128(s.lo, s.hi, pcgMulLo, pcgMulHi)
	s.lo, s.hi = add128(lo, hi, s.incLo, s.incHi)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.step()
	// XSL-RR output: xor the halves, rotate by the top 6 bits of state.
	x := s.hi ^ s.lo
	rot := uint(s.hi >> 58)
	return x>>rot | x<<((64-rot)&63)
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two
		return s.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the 128-bit product.
	for {
		v := s.Uint64()
		hi, lo := mulWide(v, n)
		if lo >= n || lo >= -n%n { // lo >= (2^64 - n) mod n  ⇒ unbiased
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform float64 in (0, 1); never exactly 0.
// Useful for -log(u) transforms.
func (s *Stream) Float64Open() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return u
		}
	}
}

// Bool returns true with probability 0.5.
func (s *Stream) Bool() bool { return s.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exp returns an exponentially distributed variate with the given mean
// (mean = 1/rate). It panics if mean <= 0.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with mean <= 0")
	}
	return -mean * math.Log(s.Float64Open())
}

// ExpRate returns an exponential variate with the given rate λ.
func (s *Stream) ExpRate(rate float64) float64 { return s.Exp(1 / rate) }

// Normal returns a normally distributed variate with mean mu and standard
// deviation sigma, using the Marsaglia polar method with caching.
func (s *Stream) Normal(mu, sigma float64) float64 {
	if s.haveNorm {
		s.haveNorm = false
		return mu + sigma*s.norm
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.norm = v * f
		s.haveNorm = true
		return mu + sigma*u*f
	}
}

// LogNormal returns a lognormally distributed variate where the underlying
// normal has mean mu and standard deviation sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Erlang returns an Erlang-k variate with the given per-stage mean
// (total mean = k * stageMean). It panics if k <= 0.
func (s *Stream) Erlang(k int, stageMean float64) float64 {
	if k <= 0 {
		panic("rng: Erlang with k <= 0")
	}
	prod := 1.0
	for i := 0; i < k; i++ {
		prod *= s.Float64Open()
	}
	return -stageMean * math.Log(prod)
}

// Gamma returns a gamma-distributed variate with shape alpha and scale
// theta, using the Marsaglia–Tsang method. It panics if alpha <= 0 or
// theta <= 0.
func (s *Stream) Gamma(alpha, theta float64) float64 {
	if alpha <= 0 || theta <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if alpha < 1 {
		// Boost: gamma(a) = gamma(a+1) * U^(1/a)
		u := s.Float64Open()
		return s.Gamma(alpha+1, theta) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := s.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v * theta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * theta
		}
	}
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success (support {0, 1, 2, ...}). It panics unless 0 < p <= 1. For the
// moderate-p regime the simulation hot loops live in, the variate is
// inverted by recursive probability multiplication — one uniform draw and
// ~1/p multiplications, no logarithms; tiny p falls back to logarithmic
// inversion, whose cost does not grow as the mean does.
func (s *Stream) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric with p out of (0, 1]")
	}
	if p == 1 {
		return 0
	}
	if p >= 0.1 {
		// Inversion by multiplication: walk the CDF with the ratio
		// P(k+1)/P(k) = q. The iteration count is bounded: once the tail
		// mass q^k drops below the uniform's resolution the loop has
		// already exited (u < 1 strictly).
		q := 1 - p
		r := p
		u := s.Float64Open()
		k := 0
		for u > r {
			u -= r
			r *= q
			k++
			if r == 0 {
				// Accumulated rounding exhausted the mass; clamp.
				return k
			}
		}
		return k
	}
	u := s.Float64Open()
	// Below p ≈ 1.1e-16, 1-p rounds to 1 and its logarithm to 0; only then
	// does Log1p take over, so every larger p keeps its draws. A variate
	// past the int range saturates instead of converting ±Inf.
	lq := math.Log(1 - p)
	if lq == 0 {
		lq = math.Log1p(-p)
	}
	x := math.Floor(math.Log(u) / lq)
	if x >= math.MaxInt {
		return math.MaxInt
	}
	return int(x)
}

// Poisson returns a Poisson-distributed variate with the given mean, using
// inversion for small means and the PTRS transformed-rejection method
// fallback via normal approximation refinement for large means.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		// Knuth/inversion by multiplication.
		limit := math.Exp(-mean)
		prod := s.Float64Open()
		n := 0
		for prod > limit {
			prod *= s.Float64Open()
			n++
		}
		return n
	}
	// Split: Poisson(m) = Poisson(m/2) + Poisson(m/2) keeps the inversion
	// path numerically safe for large means while remaining exact.
	half := mean / 2
	return s.Poisson(half) + s.Poisson(mean-half)
}

// Triangular returns a triangularly distributed variate on [lo, hi] with
// mode m. It panics unless lo <= m <= hi and lo < hi.
func (s *Stream) Triangular(lo, m, hi float64) float64 {
	if !(lo <= m && m <= hi) || lo >= hi {
		panic("rng: Triangular with invalid parameters")
	}
	u := s.Float64()
	fc := (m - lo) / (hi - lo)
	if u < fc {
		return lo + math.Sqrt(u*(hi-lo)*(m-lo))
	}
	return hi - math.Sqrt((1-u)*(hi-lo)*(hi-m))
}

// Zipf returns an integer in [1, n] drawn from a Zipf distribution with
// exponent theta > 0, via inversion on the precomputed harmonic table held
// by z. Use NewZipf to build the table once per (n, theta).
type Zipf struct {
	n   int
	cdf []float64 // cdf[i] = P(X <= i+1)
}

// NewZipf precomputes a Zipf(n, theta) sampler table.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	z := &Zipf{n: n, cdf: make([]float64, n)}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
		z.cdf[i-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Sample draws from the Zipf distribution using stream s.
func (z *Zipf) Sample(s *Stream) int {
	u := s.Float64()
	// Binary search the cdf.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Discrete samples an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if the weights are empty, negative,
// or all zero.
func (s *Stream) Discrete(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Discrete with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("rng: Discrete with no positive weight")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
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

// Shuffle randomly permutes the first n elements using the provided swap
// function (same contract as math/rand.Shuffle).
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// SplitMix64 is a tiny, fast 64-bit generator used for seeding and for
// auxiliary mixing. Its zero value is a valid (seed-0) generator.
type SplitMix64 struct{ State uint64 }

// splitMixGamma is SplitMix64's state increment γ, the odd integer
// closest to 2⁶⁴/φ.
const splitMixGamma = 0x9e3779b97f4a7c15

// Next returns the next 64-bit output.
func (s *SplitMix64) Next() uint64 {
	s.State += splitMixGamma
	z := s.State
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances the generator past k outputs in O(1), as k calls of Next
// would: the state is a counter, so the k-th output is mix(State + k·γ)
// (Steele, Lea & Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014). It lets disjoint blocks of one stream be
// generated independently, each from its own offset.
func (s *SplitMix64) Skip(k uint64) { s.State += k * splitMixGamma }

// --- 128-bit helper arithmetic. ---

// mulWide returns the 128-bit product of a and b as (hi, lo): one
// widening multiply, which the tests hold to the schoolbook product of
// four 32-bit halves.
func mulWide(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// mul128 returns (a * b) mod 2^128 where a = aHi:aLo and b = bHi:bLo.
func mul128(aLo, aHi, bLo, bHi uint64) (lo, hi uint64) {
	hi1, lo1 := mulWide(aLo, bLo)
	hi = hi1 + aLo*bHi + aHi*bLo
	return lo1, hi
}

// add128 returns (a + b) mod 2^128.
func add128(aLo, aHi, bLo, bHi uint64) (lo, hi uint64) {
	lo = aLo + bLo
	carry := uint64(0)
	if lo < aLo {
		carry = 1
	}
	hi = aHi + bHi + carry
	return lo, hi
}
