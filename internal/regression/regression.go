// Package regression implements the polynomial least-squares fits used by the
// RAC policy-initialization step (paper §4.1, Fig. 4): from a small sample of
// measured configurations it builds a smooth predictor of response time over
// the whole configuration lattice.
//
// Two fit families are provided: one-dimensional polynomials of arbitrary
// degree (used for single-parameter sweeps such as Fig. 4) and full quadratic
// surfaces in d dimensions (used to interpolate the grouped configuration
// space during policy initialization).
package regression

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Poly is a one-dimensional polynomial c0 + c1 x + c2 x^2 + ...
type Poly struct {
	coeffs []float64
}

// FitPoly fits a polynomial of the given degree to the sample (xs, ys) by
// least squares. It requires at least degree+1 points.
func FitPoly(xs, ys []float64, degree int) (*Poly, error) {
	if degree < 0 {
		return nil, errors.New("regression: negative degree")
	}
	if len(xs) != len(ys) {
		return nil, errors.New("regression: x/y length mismatch")
	}
	if len(xs) < degree+1 {
		return nil, fmt.Errorf("regression: need %d points for degree %d, have %d",
			degree+1, degree, len(xs))
	}
	design := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, degree+1)
		v := 1.0
		for d := 0; d <= degree; d++ {
			row[d] = v
			v *= x
		}
		design[i] = row
	}
	coeffs, err := leastSquares(design, ys)
	if err != nil {
		return nil, err
	}
	return &Poly{coeffs: coeffs}, nil
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p *Poly) Eval(x float64) float64 {
	var y float64
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		y = y*x + p.coeffs[i]
	}
	return y
}

// Degree returns the fitted polynomial degree.
func (p *Poly) Degree() int { return len(p.coeffs) - 1 }

// String renders the polynomial for diagnostics.
func (p *Poly) String() string {
	var b strings.Builder
	for i, c := range p.coeffs {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%.4g", c)
		if i == 1 {
			b.WriteString("·x")
		} else if i > 1 {
			fmt.Fprintf(&b, "·x^%d", i)
		}
	}
	return b.String()
}

// Quadratic is a full quadratic surface over d-dimensional inputs:
// y = c0 + Σ bi xi + Σ_{i<=j} qij xi xj.
type Quadratic struct {
	dim    int
	coeffs []float64
}

// quadraticFeatures expands x into the quadratic feature vector
// [1, x1..xd, x1x1, x1x2, ..., xdxd].
func quadraticFeatures(x []float64) []float64 {
	d := len(x)
	feats := make([]float64, 0, 1+d+d*(d+1)/2)
	feats = append(feats, 1)
	feats = append(feats, x...)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			feats = append(feats, x[i]*x[j])
		}
	}
	return feats
}

// FitQuadratic fits a full quadratic surface to the samples. Each row of xs
// must have the same dimensionality d.
//
// A dimension sampled at fewer than three distinct values cannot identify its
// own curvature: with two values a and b, xᵢ² = (a+b)·xᵢ − a·b on every
// sample, an exact linear combination of the constant and linear features, so
// any split between them fits equally well and the ridge term picks one
// arbitrarily. Such a dimension's squared feature is left out of the fit and
// its coefficient reads 0; the coefficient layout is the same either way. The
// fit needs at least as many samples as features it keeps — 1 + d + d(d+1)/2
// when every dimension has three or more values.
func FitQuadratic(xs [][]float64, ys []float64) (*Quadratic, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errors.New("regression: x/y length mismatch")
	}
	d := len(xs[0])
	if d == 0 {
		return nil, errors.New("regression: zero-dimensional input")
	}
	for _, x := range xs {
		if len(x) != d {
			return nil, errors.New("regression: ragged input")
		}
	}
	// keep[f] reports whether feature f of quadraticFeatures enters the fit.
	keep := make([]bool, 1+d+d*(d+1)/2)
	for f := range keep {
		keep[f] = true
	}
	want := len(keep)
	for i, f := 0, 1+d; i < d; i, f = i+1, f+d-i {
		if !distinctAtLeast(xs, i, 3) { // feature f is xᵢ·xᵢ
			keep[f] = false
			want--
		}
	}
	if len(xs) < want {
		return nil, fmt.Errorf("regression: need %d points for %d-dim quadratic, have %d",
			want, d, len(xs))
	}
	design := make([][]float64, len(xs))
	for r, x := range xs {
		design[r] = keptFeatures(quadraticFeatures(x), keep)
	}
	fitted, err := leastSquares(design, ys)
	if err != nil {
		return nil, err
	}
	coeffs := make([]float64, len(keep))
	for f, j := 0, 0; f < len(keep); f++ {
		if keep[f] {
			coeffs[f] = fitted[j]
			j++
		}
	}
	return &Quadratic{dim: d, coeffs: coeffs}, nil
}

// distinctAtLeast reports whether column i of xs holds at least n distinct
// values.
func distinctAtLeast(xs [][]float64, i, n int) bool {
	seen := make([]float64, 0, n)
	for _, x := range xs {
		if !slices.Contains(seen, x[i]) {
			if seen = append(seen, x[i]); len(seen) >= n {
				return true
			}
		}
	}
	return false
}

// keptFeatures compacts feats in place to the entries keep marks.
func keptFeatures(feats []float64, keep []bool) []float64 {
	out := feats[:0]
	for f, v := range feats {
		if keep[f] {
			out = append(out, v)
		}
	}
	return out
}

// QuadraticFromCoeffs rebuilds a quadratic surface from serialized
// coefficients (as returned by Coeffs) for the given input dimensionality.
func QuadraticFromCoeffs(dim int, coeffs []float64) (*Quadratic, error) {
	if dim < 1 {
		return nil, errors.New("regression: non-positive dimension")
	}
	want := 1 + dim + dim*(dim+1)/2
	if len(coeffs) != want {
		return nil, fmt.Errorf("regression: %d-dim quadratic needs %d coefficients, got %d",
			dim, want, len(coeffs))
	}
	cp := make([]float64, len(coeffs))
	copy(cp, coeffs)
	return &Quadratic{dim: dim, coeffs: cp}, nil
}

// Dim returns the input dimensionality of the surface.
func (q *Quadratic) Dim() int { return q.dim }

// Coeffs returns a copy of the surface coefficients in feature order
// (constant, linear terms, then upper-triangular quadratic terms).
func (q *Quadratic) Coeffs() []float64 {
	out := make([]float64, len(q.coeffs))
	copy(out, q.coeffs)
	return out
}

// Eval evaluates the surface at x. It panics if len(x) != Dim(). It walks the
// features in quadraticFeatures order without building them, so it allocates
// nothing and sums the same products in the same order, bit for bit.
func (q *Quadratic) Eval(x []float64) float64 {
	if len(x) != q.dim {
		panic("regression: Quadratic.Eval dimension mismatch")
	}
	c := q.coeffs
	var y float64
	y += c[0] // the constant feature, added to +0 like every other term
	for i, xi := range x {
		y += c[1+i] * xi
	}
	f := 1 + len(x)
	for i, xi := range x {
		for _, xj := range x[i:] {
			y += c[f] * float64(xi*xj)
			f++
		}
	}
	return y
}

// RSquared returns the coefficient of determination of predictions preds
// against observations ys. It returns 1 for a perfect fit and can be negative
// for fits worse than the mean.
func RSquared(ys, preds []float64) float64 {
	if len(ys) == 0 || len(ys) != len(preds) {
		return math.NaN()
	}
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssRes, ssTot float64
	for i, y := range ys {
		r := y - preds[i]
		ssRes += r * r
		t := y - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}
