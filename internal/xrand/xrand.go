// Package xrand provides a small deterministic pseudo-random number
// generator used throughout the repository so that every test, example,
// and experiment is reproducible across runs and machines.
//
// The core generator is splitmix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators"), which passes BigCrush, needs only a
// 64-bit state word, and is trivially seedable. On top of it the package
// offers the handful of distributions the tensor workloads need: uniform
// floats and ints, Gaussians, permutations, and a bounded Zipf sampler
// for generating skewed tensor modes.
package xrand

import "math"

// Source is a deterministic splitmix64 generator. The zero value is a
// valid generator seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 random mantissa bits scaled into [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. One of the two generated variates is discarded for
// simplicity; tensor initialisation is not throughput sensitive.
func (s *Source) NormFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		v := s.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
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

// Split returns a new Source whose stream is independent from the
// receiver's, derived from the receiver's next output. It is used to
// give each worker or mode its own deterministic stream.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// mix64 is the splitmix64 finaliser — the avalanche function Uint64
// applies to its Weyl counter. It is a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive returns the seed of a sub-stream identified by the given keys
// (step, mode, rank, ...). Each key is folded through the splitmix64
// finaliser, so structured nearby keys — (step, step+1), (mode 0, rank
// 1) vs (mode 1, rank 0) — land in unrelated generator states, unlike
// raw seed+key arithmetic where neighbouring streams start one Weyl
// increment apart and share most of their sequence. Folding is
// left-associative: Derive(s, a, b) == Derive(Derive(s, a), b), so a
// component holding a derived seed can derive further sub-streams.
// With no keys the seed is returned unchanged.
func Derive(seed uint64, keys ...uint64) uint64 {
	for _, k := range keys {
		seed = mix64(seed + 0x9e3779b97f4a7c15 + mix64(k))
	}
	return seed
}

// Sub returns a Source seeded for the sub-stream Derive(seed, keys...).
func Sub(seed uint64, keys ...uint64) *Source {
	return New(Derive(seed, keys...))
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^alpha. It precomputes the cumulative distribution so
// sampling is a binary search; n is expected to be modest (tensor mode
// sizes in the generators, at most a few million).
type Zipf struct {
	src *Source
	cdf []float64
}

// NewZipf builds a Zipf sampler over [0, n) with exponent alpha > 0.
func NewZipf(src *Source, alpha float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if alpha <= 0 {
		panic("xrand: NewZipf with non-positive alpha")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	return &Zipf{src: src, cdf: cdf}
}

// Draw returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
