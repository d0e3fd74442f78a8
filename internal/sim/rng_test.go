package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	diverged := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("split child mirrors parent stream")
	}
}

func TestRNGSplitNMatchesSequentialSplits(t *testing.T) {
	// SplitN(n) is exactly n Split calls, and the derived streams do not
	// depend on the order they are later consumed in.
	a := NewRNG(11)
	b := NewRNG(11)
	children := a.SplitN(8)
	for i := 0; i < 8; i++ {
		want := b.Split().Uint64()
		if got := children[i].Uint64(); got != want {
			t.Fatalf("child %d: got %d, want %d", i, got, want)
		}
	}
	// Consuming children back-to-front yields the same per-child values as
	// front-to-back: each stream is fully determined at split time.
	fwd := NewRNG(13).SplitN(5)
	rev := NewRNG(13).SplitN(5)
	var fwdVals, revVals [5]uint64
	for i := 0; i < 5; i++ {
		fwdVals[i] = fwd[i].Uint64()
	}
	for i := 4; i >= 0; i-- {
		revVals[i] = rev[i].Uint64()
	}
	if fwdVals != revVals {
		t.Fatalf("consumption order changed streams: %v vs %v", fwdVals, revVals)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered %d values, want 7", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	const mean = 7.0
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(mean)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.03 {
		t.Fatalf("exponential mean %v, want ~%v", got, mean)
	}
}

func TestExpFloat64NonPositiveMean(t *testing.T) {
	r := NewRNG(1)
	if v := r.ExpFloat64(0); v != 0 {
		t.Fatalf("ExpFloat64(0) = %v, want 0", v)
	}
	if v := r.ExpFloat64(-1); v != 0 {
		t.Fatalf("ExpFloat64(-1) = %v, want 0", v)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	const (
		mean = 3.0
		std  = 2.0
		n    = 100000
	)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64(mean, std)
		sum += v
		sumSq += v * v
	}
	gotMean := sum / n
	gotVar := sumSq/n - gotMean*gotMean
	if math.Abs(gotMean-mean) > 0.05 {
		t.Fatalf("normal mean %v, want ~%v", gotMean, mean)
	}
	if math.Abs(math.Sqrt(gotVar)-std) > 0.05 {
		t.Fatalf("normal std %v, want ~%v", math.Sqrt(gotVar), std)
	}
}

func TestLogNormFloat64UnitMean(t *testing.T) {
	r := NewRNG(19)
	const sigma = 0.35
	mu := -sigma * sigma / 2
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.LogNormFloat64(mu, sigma)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("lognormal mean %v, want ~1", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(23)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	r := NewRNG(29)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("picked zero-weight index %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio %v, want ~3", ratio)
	}
}

func TestPickDegenerateWeights(t *testing.T) {
	r := NewRNG(1)
	if got := r.Pick([]float64{0, 0}); got != 0 {
		t.Fatalf("Pick(all-zero) = %d, want 0", got)
	}
	if got := r.Pick([]float64{-1, -2}); got != 0 {
		t.Fatalf("Pick(all-negative) = %d, want 0", got)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRNG(99)
	z := NewZipf(rng, 1.0, 100)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must dominate and the distribution must be monotone-ish:
	// compare decile mass rather than individual ranks to tolerate noise.
	if counts[0] < counts[10] {
		t.Fatal("rank 0 not more popular than rank 10")
	}
	firstDecile, lastDecile := 0, 0
	for i := 0; i < 10; i++ {
		firstDecile += counts[i]
		lastDecile += counts[90+i]
	}
	if firstDecile < 5*lastDecile {
		t.Fatalf("insufficient skew: first decile %d vs last %d", firstDecile, lastDecile)
	}
	// Zipf(1) over 100 ranks: rank 0 carries ~1/H(100) ≈ 19% of the mass.
	p0 := float64(counts[0]) / n
	if math.Abs(p0-0.19) > 0.03 {
		t.Fatalf("rank-0 mass %v, want ~0.19", p0)
	}
}

func TestZipfPanics(t *testing.T) {
	rng := NewRNG(1)
	for _, tt := range []struct {
		s float64
		n int
	}{{1, 0}, {0, 10}, {-1, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(s=%v,n=%d) did not panic", tt.s, tt.n)
				}
			}()
			NewZipf(rng, tt.s, tt.n)
		}()
	}
}
