package main

import (
	"math"
	"slices"

	"github.com/rac-project/rac/internal/stats"
)

// median returns the median of xs (any order); 0 on an empty slice.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance pipeline computes its spreads with. With fewer than two values
// both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// keys returns the map's keys in ascending order.
func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// mean returns the arithmetic mean of xs; 0 on an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tailLadder lists the percentiles a timing may be reported at.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest ladder percentile that still has at
// least ten of n samples beyond it — the tail a sample of that size can
// support. Below twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// Compare in integers (samples beyond = n·(1−p)); the ladder is
		// decimal, so scale by 10⁴ to stay exact.
		beyond := n * int(math.Round((1-p)*1e4)) / 1e4
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// timing summarises a set of duration samples the way every timing in the
// ledger is reported: sample count, median, and the highest percentile with
// at least ten samples beyond it.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

func summarize(xs []float64) timing {
	p := tailPercentile(len(xs))
	return timing{N: len(xs), P50: median(xs), TailP: p, Tail: stats.Quantile(xs, p)}
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
