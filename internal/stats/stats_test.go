package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.Count() != 8 {
		t.Fatalf("Count = %d", r.Count())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", r.Mean())
	}
	// Unbiased variance of this classic sample is 32/7.
	if !almost(r.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", r.Variance())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Fatal("empty accumulator not zero")
	}
}

func TestRunningSingleSampleVariance(t *testing.T) {
	var r Running
	r.Add(5)
	if r.Variance() != 0 {
		t.Fatalf("single-sample variance %v", r.Variance())
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	check := func(seed int64) bool {
		xs := make([]float64, 0, 40)
		v := float64(seed%1000) / 7
		for i := 0; i < 40; i++ {
			v = v*1.1 + float64(i%13) - 6
			xs = append(xs, v)
		}
		var all, a, b Running
		for i, x := range xs {
			all.Add(x)
			if i < 17 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.Count() == all.Count() &&
			almost(a.Mean(), all.Mean(), 1e-9*math.Abs(all.Mean())+1e-9) &&
			almost(a.Variance(), all.Variance(), 1e-6*math.Abs(all.Variance())+1e-9) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Merge(b) // merging empty is a no-op
	if a.Count() != 1 {
		t.Fatal("merge with empty changed count")
	}
	var c Running
	c.Merge(a) // merging into empty copies
	if c.Count() != 1 || c.Mean() != 1 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestWindow(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || w.Mean() != 0 {
		t.Fatal("fresh window not empty")
	}
	w.Add(1)
	w.Add(2)
	if w.Full() {
		t.Fatal("window full too early")
	}
	if !almost(w.Mean(), 1.5, 1e-12) {
		t.Fatalf("Mean = %v", w.Mean())
	}
	w.Add(3)
	w.Add(4) // evicts 1
	if !w.Full() {
		t.Fatal("window should be full")
	}
	if !almost(w.Mean(), 3, 1e-12) {
		t.Fatalf("Mean after eviction = %v", w.Mean())
	}
	vals := w.Values()
	want := []float64{2, 3, 4}
	for i, v := range want {
		if vals[i] != v {
			t.Fatalf("Values = %v, want %v", vals, want)
		}
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestWindowMinCapacity(t *testing.T) {
	w := NewWindow(0)
	w.Add(5)
	w.Add(6)
	if w.Len() != 1 || w.Mean() != 6 {
		t.Fatalf("capacity-clamped window misbehaves: len=%d mean=%v", w.Len(), w.Mean())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{1, 10},
		{0.5, 5.5},
		{0.25, 3.25},
		{-1, 1},
		{2, 10},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almost(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not zero")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileMonotone(t *testing.T) {
	check := func(seed int64) bool {
		xs := make([]float64, 0, 21)
		v := float64(seed % 97)
		for i := 0; i < 21; i++ {
			v = v*1.3 + float64(i) - 10
			xs = append(xs, v)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			cur := Quantile(xs, q)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := Summarize(xs)
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary %+v", s)
	}
	if !almost(s.Mean, 3, 1e-12) || !almost(s.P50, 3, 1e-12) {
		t.Fatalf("bad central stats %+v", s)
	}
	if s.P95 < s.P90 || s.P99 < s.P95 || s.Max < s.P99 {
		t.Fatalf("percentiles not ordered: %+v", s)
	}
	if (Summarize(nil) != Summary{}) {
		t.Fatal("empty summary not zero")
	}
}

func TestRelChange(t *testing.T) {
	tests := []struct {
		cur, ref, want float64
	}{
		{13, 10, 0.3},
		{7, 10, 0.3},
		{10, 10, 0},
		{5, 0, 0},
		{-13, -10, 0.3},
	}
	for _, tt := range tests {
		if got := RelChange(tt.cur, tt.ref); !almost(got, tt.want, 1e-12) {
			t.Errorf("RelChange(%v,%v) = %v, want %v", tt.cur, tt.ref, got, tt.want)
		}
	}
}

// Min returns the smallest sample, or zero when empty.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or zero when empty.
func (r *Running) Max() float64 { return r.max }
