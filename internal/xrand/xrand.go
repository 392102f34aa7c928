// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used across the repository. Determinism across Go versions
// matters for reproducible experiments, so we do not rely on math/rand's
// unspecified algorithm; instead we use splitmix64 (Steele, Lea, Flood 2014),
// which passes BigCrush and is trivially seedable.
package xrand

import "math"

// splitmix64 advances the state and returns the next output of the
// splitmix64 generator.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix returns a well-distributed 64-bit hash of x. It is the splitmix64
// output function applied once, usable as a standalone finalizer.
func Mix(x uint64) uint64 {
	s := x
	return splitmix64(&s)
}

// RNG is a deterministic pseudo-random number generator. The zero value is a
// valid generator seeded with 0; prefer New for explicit seeding.
type RNG struct {
	state uint64
}

// New returns an RNG seeded with seed. Two RNGs with the same seed produce
// identical streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return splitmix64(&r.state)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, matching the contract of math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pareto returns a sample from the discrete power-law (Pareto) distribution
// with density proportional to x^(-alpha) on [xmin, xmax], sampled by inverse
// CDF of the continuous Pareto and floored. alpha must be > 1.
func (r *RNG) Pareto(alpha float64, xmin, xmax int) int {
	if alpha <= 1 {
		panic("xrand: Pareto requires alpha > 1")
	}
	if xmin < 1 || xmax < xmin {
		panic("xrand: Pareto requires 1 <= xmin <= xmax")
	}
	// Inverse-CDF sampling of the truncated continuous Pareto.
	a := 1 - alpha
	lo := math.Pow(float64(xmin), a)
	hi := math.Pow(float64(xmax)+1, a)
	u := r.Float64()
	x := math.Pow(lo+u*(hi-lo), 1/a)
	v := int(x)
	if v < xmin {
		v = xmin
	}
	if v > xmax {
		v = xmax
	}
	return v
}

// Zipf returns a sample in [0, n) with probability proportional to
// 1/(rank+1)^s, using rejection-free inverse-CDF over the harmonic partial
// sums approximation. It is approximate for large n but adequate for
// generating skewed value draws; s must be > 0 and n > 0.
func (r *RNG) Zipf(s float64, n int) int {
	if n <= 0 {
		panic("xrand: Zipf requires n > 0")
	}
	if s <= 0 {
		panic("xrand: Zipf requires s > 0")
	}
	// Inverse-CDF on the continuous bounded Zipf (a.k.a. bounded Pareto on
	// ranks). For s == 1 the CDF involves log; handle separately.
	u := r.Float64()
	if math.Abs(s-1) < 1e-9 {
		// CDF(x) ~ ln(x+1)/ln(n+1)
		x := math.Exp(u*math.Log(float64(n)+1)) - 1
		k := int(x)
		if k >= n {
			k = n - 1
		}
		return k
	}
	a := 1 - s
	hi := math.Pow(float64(n)+1, a)
	x := math.Pow(1+u*(hi-1), 1/a) - 1
	k := int(x)
	if k >= n {
		k = n - 1
	}
	if k < 0 {
		k = 0
	}
	return k
}

// MinOfUniforms returns a sample distributed as the minimum of k independent
// uniform draws from [0, bound). It uses the inverse CDF of the minimum:
// F_min(v) = 1 - (1 - v/bound)^k, so v = bound * (1 - (1-u)^(1/k)).
// This lets callers simulate the minimum over k fresh hash values without
// materializing k draws. k must be >= 1.
func (r *RNG) MinOfUniforms(k int, bound uint64) uint64 {
	if k < 1 {
		panic("xrand: MinOfUniforms requires k >= 1")
	}
	u := r.Float64()
	v := float64(bound) * (1 - math.Pow(1-u, 1/float64(k)))
	if v < 0 {
		v = 0
	}
	if v >= float64(bound) {
		return bound - 1
	}
	return uint64(v)
}
