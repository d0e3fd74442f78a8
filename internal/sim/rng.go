// Package sim provides the deterministic simulation primitives shared by the
// workload generator and the web-system model: a seedable random number
// generator with independent derivable streams and the probability
// distributions used by the TPC-W traffic model.
//
// All randomness in the repository flows through sim.RNG so that every
// experiment is reproducible from a single seed.
package sim

import "math"

// RNG is a small, fast, seedable pseudo-random number generator based on
// SplitMix64. It is deliberately not safe for concurrent use; derive one
// stream per goroutine with Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child stream from the current generator state.
// The parent stream advances by one step, so repeated Split calls yield
// distinct children.
func (r *RNG) Split() *RNG {
	// Mix the next output back through the finalizer so child streams do not
	// overlap the parent sequence.
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// State returns the generator's internal state. Together with RestoreRNG it
// lets checkpoints capture a stream mid-sequence and resume it later with the
// exact same future outputs — the fleet layer's warm-restart contract.
func (r *RNG) State() uint64 { return r.state }

// RestoreRNG reconstructs a generator from a state previously returned by
// State. The restored stream continues precisely where the captured one
// stopped (unlike NewRNG, which treats its argument as a fresh seed).
func RestoreRNG(state uint64) *RNG {
	return &RNG{state: state}
}

// SplitN derives n independent child streams, advancing the parent by n
// steps. All children exist before any is consumed, so handing one stream to
// each unit of a parallel.Map keeps results independent of execution order —
// the repository's determinism contract for parallel sweeps.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching the
// contract of math/rand.Intn.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponentially distributed value with the given mean.
// A non-positive mean yields zero.
func (r *RNG) ExpFloat64(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// NormFloat64 returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) NormFloat64(mean, stddev float64) float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormFloat64 returns a log-normally distributed value whose underlying
// normal has parameters mu and sigma.
func (r *RNG) LogNormFloat64(mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64(mu, sigma))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Pick returns an index in [0, len(weights)) with probability proportional to
// the weight at that index. Weights must be non-negative with a positive sum;
// otherwise Pick returns 0.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf draws from a Zipf(s) distribution over [0, n): rank 0 is the most
// popular. It uses inverse-CDF sampling over precomputed cumulative weights;
// construct once with NewZipf and reuse.
type Zipf struct {
	cum []float64
	rng *RNG
}

// NewZipf prepares a Zipf sampler with exponent s > 0 over n ranks, drawing
// from rng. It panics for n < 1 or s <= 0, matching the construction-time
// contract of the standard library's rand.Zipf.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n < 1 {
		panic("sim: Zipf needs at least one rank")
	}
	if s <= 0 {
		panic("sim: Zipf exponent must be positive")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, rng: rng}
}

// Next returns the next rank in [0, len).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the cumulative table.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
