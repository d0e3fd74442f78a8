package regression

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitPolyExactQuadratic(t *testing.T) {
	// y = 2 + 3x - 0.5x^2 sampled exactly.
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*x - 0.5*x*x
	}
	p, err := FitPoly(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Coeffs()
	want := []float64{2, 3, -0.5}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-8 {
			t.Fatalf("coeffs = %v, want %v", c, want)
		}
	}
	if p.Degree() != 2 {
		t.Fatalf("Degree = %d", p.Degree())
	}
	// Interpolation at an unseen point.
	if got := p.Eval(1.5); math.Abs(got-(2+4.5-1.125)) > 1e-8 {
		t.Fatalf("Eval(1.5) = %v", got)
	}
}

func TestFitPolyUnderdetermined(t *testing.T) {
	if _, err := FitPoly([]float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Fatal("expected error for too few points")
	}
}

func TestFitPolyMismatchedLengths(t *testing.T) {
	if _, err := FitPoly([]float64{1, 2, 3}, []float64{1, 2}, 1); err == nil {
		t.Fatal("expected error for mismatched inputs")
	}
}

func TestFitPolyNegativeDegree(t *testing.T) {
	if _, err := FitPoly([]float64{1}, []float64{1}, -1); err == nil {
		t.Fatal("expected error for negative degree")
	}
}

func TestFitPolyConstant(t *testing.T) {
	p, err := FitPoly([]float64{1, 2, 3}, []float64{5, 5, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The tiny ridge regularizer perturbs the constant at the 1e-9 level.
	if got := p.Eval(100); math.Abs(got-5) > 1e-6 {
		t.Fatalf("constant fit Eval = %v", got)
	}
}

func TestFitPolyRecoversNoisyLine(t *testing.T) {
	// y = 1 + 2x with small deterministic perturbation: the fit should land
	// close to the true line.
	var xs, ys []float64
	for i := 0; i < 50; i++ {
		x := float64(i) / 5
		noise := 0.01 * math.Sin(float64(i)*12.9898)
		xs = append(xs, x)
		ys = append(ys, 1+2*x+noise)
	}
	p, err := FitPoly(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Coeffs()
	if math.Abs(c[0]-1) > 0.05 || math.Abs(c[1]-2) > 0.02 {
		t.Fatalf("noisy line fit %v", c)
	}
}

func TestQuadraticSurfaceExact(t *testing.T) {
	// y = 1 + 2a - b + 0.5a² + ab - 0.25b²
	f := func(a, b float64) float64 {
		return 1 + 2*a - b + 0.5*a*a + a*b - 0.25*b*b
	}
	var xs [][]float64
	var ys []float64
	for a := -2.0; a <= 2; a++ {
		for b := -2.0; b <= 2; b++ {
			xs = append(xs, []float64{a, b})
			ys = append(ys, f(a, b))
		}
	}
	q, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if q.Dim() != 2 {
		t.Fatalf("Dim = %d", q.Dim())
	}
	for _, probe := range [][]float64{{0.5, 0.5}, {-1.5, 2.5}, {3, -3}} {
		want := f(probe[0], probe[1])
		if got := q.Eval(probe); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Eval(%v) = %v, want %v", probe, got, want)
		}
	}
}

func TestQuadraticUnderdetermined(t *testing.T) {
	xs := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	ys := []float64{1, 2, 3}
	if _, err := FitQuadratic(xs, ys); err == nil {
		t.Fatal("expected error: 2-dim quadratic needs 6 points")
	}
}

func TestQuadraticRaggedInput(t *testing.T) {
	xs := [][]float64{{1, 1}, {2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}}
	ys := []float64{1, 2, 3, 4, 5, 6}
	if _, err := FitQuadratic(xs, ys); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestQuadraticEvalDimPanics(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i < 6; i++ {
		a, b := float64(i), float64(i*i%5)
		xs = append(xs, []float64{a, b})
		ys = append(ys, a+b)
	}
	q, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with wrong dim did not panic")
		}
	}()
	q.Eval([]float64{1})
}

func TestRSquared(t *testing.T) {
	ys := []float64{1, 2, 3, 4}
	if got := RSquared(ys, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect fit R² = %v", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := RSquared(ys, mean); math.Abs(got) > 1e-12 {
		t.Fatalf("mean predictor R² = %v", got)
	}
	if !math.IsNaN(RSquared(nil, nil)) {
		t.Fatal("empty R² should be NaN")
	}
	if !math.IsNaN(RSquared(ys, ys[:2])) {
		t.Fatal("mismatched R² should be NaN")
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solveLinear(a, b); err == nil {
		t.Fatal("singular system solved")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	// 2x + y = 5; x - y = 1 → x=2, y=1.
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("solution %v", x)
	}
}

func TestPolyEvalHornerProperty(t *testing.T) {
	// Horner evaluation equals naive power evaluation.
	check := func(c0, c1, c2, c3, x float64) bool {
		// Constrain quick's unbounded floats to a numerically sane range.
		bound := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 100)
		}
		c0, c1, c2, c3, x = bound(c0), bound(c1), bound(c2), bound(c3), bound(x)
		p := &Poly{coeffs: []float64{c0, c1, c2, c3}}
		naive := c0 + c1*x + c2*x*x + c3*x*x*x
		got := p.Eval(x)
		scale := math.Max(1, math.Abs(naive))
		return math.Abs(got-naive) <= 1e-9*scale
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuadraticTwoLevelFactorial plants a linear surface with interactions on
// a two-level full factorial — the coarse-2 sample policy initialization
// takes — where no dimension's curvature is identifiable. The fit must
// recover the planted coefficients, read 0 in every squared slot, and predict
// the untouched midpoint of the design.
func TestQuadraticTwoLevelFactorial(t *testing.T) {
	// Feature order: 1, a, b, c, d, then aa ab ac ad bb bc bd cc cd dd.
	planted := []float64{
		-1.5, 0.04, -0.02, 0.01, 0.03,
		0, 0.0004, 0, -0.0002, 0, 0.0003, 0, 0, 0.0001, 0,
	}
	lo, hi := []float64{50, 1, 5, 15}, []float64{600, 21, 85, 95}
	var xs [][]float64
	var ys []float64
	for corner := 0; corner < 16; corner++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = lo[i]
			if corner>>i&1 == 1 {
				x[i] = hi[i]
			}
		}
		xs = append(xs, x)
		ys = append(ys, (&Quadratic{dim: 4, coeffs: planted}).Eval(x))
	}
	q, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range q.Coeffs() {
		if math.Abs(c-planted[i]) > 1e-6*math.Max(1, math.Abs(planted[i])) {
			t.Errorf("coefficient %d = %.6g, planted %.6g", i, c, planted[i])
		}
	}
	mid := make([]float64, 4)
	for i := range mid {
		mid[i] = (lo[i] + hi[i]) / 2
	}
	want := (&Quadratic{dim: 4, coeffs: planted}).Eval(mid)
	if got := q.Eval(mid); math.Abs(got-want) > 1e-6 {
		t.Errorf("midpoint prediction %.6g, planted surface %.6g", got, want)
	}

	// Dropping the unidentifiable squares also lowers the sample count the
	// fit needs: 1 + 4 + 6 features, not 15.
	if _, err := FitQuadratic(xs[:11], ys[:11]); err != nil {
		t.Errorf("11 two-level samples rejected: %v", err)
	}
	if _, err := FitQuadratic(xs[:10], ys[:10]); err == nil {
		t.Error("10 samples accepted for 11 features")
	}
}

// TestQuadraticEvalMatchesFeatureSum holds Eval to the dot product of the
// coefficients with the materialized feature vector, summed in feature order,
// bit for bit — including a −0 constant, which the sum starting from +0 turns
// into +0 — and checks it allocates nothing.
func TestQuadraticEvalMatchesFeatureSum(t *testing.T) {
	featureSum := func(q *Quadratic, x []float64) float64 {
		var y float64
		for i, f := range quadraticFeatures(x) {
			y += q.coeffs[i] * f
		}
		return y
	}
	check := func(seed [16]float64, dim uint8) bool {
		d := 1 + int(dim)%5
		coeffs := make([]float64, 1+d+d*(d+1)/2)
		for i := range coeffs {
			coeffs[i] = seed[i%len(seed)] * float64(i+1) / 7
		}
		x := make([]float64, d)
		for i := range x {
			x[i] = seed[(i+5)%len(seed)] - float64(i)
		}
		q := &Quadratic{dim: d, coeffs: coeffs}
		return math.Float64bits(q.Eval(x)) == math.Float64bits(featureSum(q, x))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	negZero := &Quadratic{dim: 1, coeffs: []float64{math.Copysign(0, -1), 0, 0}}
	if got := negZero.Eval([]float64{0}); math.Signbit(got) {
		t.Errorf("−0 constant evaluates to %v, the feature sum to +0", got)
	}

	q := &Quadratic{dim: 4, coeffs: make([]float64, 15)}
	x := []float64{50, 1, 5, 15}
	if allocs := testing.AllocsPerRun(100, func() { q.Eval(x) }); allocs != 0 {
		t.Fatalf("Eval allocates %.1f per call, want 0", allocs)
	}
}

// Coeffs returns a copy of the coefficients, constant term first.
func (p *Poly) Coeffs() []float64 {
	out := make([]float64, len(p.coeffs))
	copy(out, p.coeffs)
	return out
}
