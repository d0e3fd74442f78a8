// Package stats provides the small set of streaming and batch statistics the
// agent and the benchmark harness rely on: Welford running moments, sliding
// windows, exponentially weighted averages, and percentile summaries.
package stats

import (
	"math"
	"sort"
)

// Running accumulates count, mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Count returns the number of samples seen.
func (r *Running) Count() int { return r.n }

// Mean returns the sample mean, or zero when empty.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance, or zero with fewer than two
// samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Window is a fixed-capacity sliding window of float64 samples.
type Window struct {
	buf  []float64
	next int
	full bool
}

// NewWindow returns a window holding the most recent n samples. n must be
// positive; non-positive values are treated as 1.
func NewWindow(n int) *Window {
	if n < 1 {
		n = 1
	}
	return &Window{buf: make([]float64, n)}
}

// Add appends x, evicting the oldest sample once the window is full.
func (w *Window) Add(x float64) {
	w.buf[w.next] = x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len returns the number of live samples.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return w.full }

// Mean returns the mean of the live samples, or zero when empty.
func (w *Window) Mean() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += w.buf[i]
	}
	return sum / float64(n)
}

// Values returns a copy of the live samples in insertion order.
func (w *Window) Values() []float64 {
	n := w.Len()
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	if w.full {
		out = append(out, w.buf[w.next:]...)
	}
	out = append(out, w.buf[:w.next]...)
	return out
}

// Reset clears the window.
func (w *Window) Reset() {
	w.next = 0
	w.full = false
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns zero for an empty slice.
// The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary is a batch percentile summary of a sample.
type Summary struct {
	Count int
	Mean  float64
	Std   float64
	Min   float64
	P50   float64
	P90   float64
	P95   float64
	P99   float64
	Max   float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var run Running
	for _, x := range xs {
		run.Add(x)
	}
	return Summary{
		Count: len(xs),
		Mean:  run.Mean(),
		Std:   run.StdDev(),
		Min:   sorted[0],
		P50:   quantileSorted(sorted, 0.50),
		P90:   quantileSorted(sorted, 0.90),
		P95:   quantileSorted(sorted, 0.95),
		P99:   quantileSorted(sorted, 0.99),
		Max:   sorted[len(sorted)-1],
	}
}

// RelChange returns |cur-ref|/|ref|, the relative deviation used by the
// agent's violation detector. A zero reference yields zero to avoid division
// blow-ups on cold starts.
func RelChange(cur, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return math.Abs(cur-ref) / math.Abs(ref)
}
