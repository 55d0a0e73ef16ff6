// Package vec provides the d-dimensional vector primitives shared by every
// other package in gridrank: inner products, dominance tests, and score
// bounds of a fixed point over an axis-aligned box of weight vectors.
//
// Throughout the library a product point p has non-negative attributes in
// [0, r) and a preference vector w has non-negative weights summing to 1.
// Smaller scores f_w(p) = Σ w[i]·p[i] are preferable, following the paper's
// convention.
package vec

import (
	"fmt"
	"math"
)

// Vector is a d-dimensional point or weight vector. It is a type alias so
// that []float64 values flow freely between the public API and internal
// packages without copying.
type Vector = []float64

// Dot returns the inner product Σ a[i]·b[i], the score function f_w(p) of
// the paper. It panics if the lengths differ, since mismatched
// dimensionality is always a programming error.
//
// The loop is unrolled 4-wide with a scalar tail. The accumulator is a
// single variable updated in index order, so the floating-point result is
// bit-identical to the naive loop — rank comparisons must not move when
// the kernel changes shape. Each block is accessed through a capped
// sub-slice (a[i:i+4:i+4]), which reduces the four per-element bounds
// checks to one slice check per block; among the unroll shapes measured
// (naive, reslice-advance, indexed blocks) this one is fastest from d = 6
// through d = 64.
func Dot(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+4 <= len(a) && i+4 <= len(b); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s += aa[0] * bb[0]
		s += aa[1] * bb[1]
		s += aa[2] * bb[2]
		s += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Dot2 returns (Σ w[i]·a[i], Σ w[i]·b[i]), the two-row widening of Dot:
// full-scan callers scoring consecutive points under one weight share the
// w loads across both rows and give the CPU two independent multiply-add
// chains to overlap. Each output uses its own accumulator updated in
// index order with the same 4-wide unroll as Dot, so both results are
// bit-identical to calling Dot twice — rank comparisons must not move
// when a caller switches to the paired kernel.
//
// Only safe for callers that evaluate every row unconditionally (TopK,
// Rank): early-exit scans like RankBounded would compute the second row
// speculatively and distort visit counters.
func Dot2(w, a, b Vector) (float64, float64) {
	if len(w) != len(a) || len(w) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d, %d != %d", len(a), len(b), len(w)))
	}
	var s, t float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		ww := w[i : i+4 : i+4]
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s += ww[0] * aa[0]
		t += ww[0] * bb[0]
		s += ww[1] * aa[1]
		t += ww[1] * bb[1]
		s += ww[2] * aa[2]
		t += ww[2] * bb[2]
		s += ww[3] * aa[3]
		t += ww[3] * bb[3]
	}
	for ; i < len(w); i++ {
		s += w[i] * a[i]
		t += w[i] * b[i]
	}
	return s, t
}

// Dominates reports whether p strictly dominates q under the
// minimum-is-preferable convention: p[i] < q[i] on every dimension.
//
// Strict inequality on every coordinate guarantees f_w(p) < f_w(q) for every
// legal preference vector w (non-negative weights summing to one) in real
// arithmetic only: computed scores can tie (p one ulp below q in every
// coordinate may score exactly Dot(w, q)). The query algorithms therefore
// test dominance by a rounding margin instead (internal/algo).
func Dominates(p, q Vector) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(p), len(q)))
	}
	for i, pi := range p {
		if pi >= q[i] {
			return false
		}
	}
	return true
}

// WeakDominates reports whether p[i] <= q[i] on every dimension with strict
// inequality on at least one. Used by dataset diagnostics and tests; query
// algorithms use the strict Dominates above.
func WeakDominates(p, q Vector) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(p), len(q)))
	}
	strict := false
	for i, pi := range p {
		if pi > q[i] {
			return false
		}
		if pi < q[i] {
			strict = true
		}
	}
	return strict
}

// Equal reports exact element-wise equality.
func Equal(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i, ai := range a {
		if ai != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a fresh copy of v.
func Clone(v Vector) Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Sum returns Σ v[i].
func Sum(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Normalize scales v in place so that Σ v[i] = 1, turning any non-negative,
// non-zero vector into a legal preference vector. It reports whether
// normalization was possible (the sum was positive and finite).
func Normalize(v Vector) bool {
	s := Sum(v)
	if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		return false
	}
	for i := range v {
		v[i] /= s
	}
	return true
}

// MinScore returns the smallest score any weight vector inside the box
// [wlo, whi] can assign to point p: Σ wlo[i]·p[i], valid because p is
// non-negative. Used to bound scores of a query point over an R-tree node
// or histogram cell of weight vectors.
func MinScore(p, wlo Vector) float64 { return Dot(p, wlo) }

// MaxScore returns the largest score any weight vector inside the box
// [wlo, whi] can assign to p: Σ whi[i]·p[i].
func MaxScore(p, whi Vector) float64 { return Dot(p, whi) }

// MaxDiffScore returns max over w in the box [wlo, whi] of w·(p-q).
// Because every w is component-wise non-negative, the maximum picks
// whi[i] where p[i]-q[i] > 0 and wlo[i] where it is negative.
//
// If the result is negative, every weight vector in the box scores p
// strictly below q in real arithmetic, i.e. p beats q for the whole box.
// BBR and MPA use it to count whole P-subtrees into the rank of q for a
// whole group of weight vectors at once; since ranks compare computed
// scores, they demand it clear a rounding margin (internal/algo).
func MaxDiffScore(p, q, wlo, whi Vector) float64 {
	if len(p) != len(q) || len(p) != len(wlo) || len(p) != len(whi) {
		panic("vec: dimension mismatch in MaxDiffScore")
	}
	var s float64
	for i := range p {
		v := p[i] - q[i]
		if v > 0 {
			s += whi[i] * v
		} else {
			s += wlo[i] * v
		}
	}
	return s
}

// MinDiffScore returns min over w in the box [wlo, whi] of w·(p-q); if the
// result is positive, q beats p for every weight vector in the box.
func MinDiffScore(p, q, wlo, whi Vector) float64 {
	if len(p) != len(q) || len(p) != len(wlo) || len(p) != len(whi) {
		panic("vec: dimension mismatch in MinDiffScore")
	}
	var s float64
	for i := range p {
		v := p[i] - q[i]
		if v > 0 {
			s += wlo[i] * v
		} else {
			s += whi[i] * v
		}
	}
	return s
}

// BoxDot bounds the score of any point inside the box [plo, phi] under any
// weight inside [wlo, whi]: lower = Σ wlo[i]·plo[i], upper = Σ whi[i]·phi[i].
// All coordinates are non-negative, which makes the corner products exact
// bounds. This is the MBR-vs-MBR score bound used by the tree baselines.
func BoxDot(plo, phi, wlo, whi Vector) (lower, upper float64) {
	if len(plo) != len(phi) || len(plo) != len(wlo) || len(plo) != len(whi) {
		panic("vec: dimension mismatch in BoxDot")
	}
	for i := range plo {
		lower += wlo[i] * plo[i]
		upper += whi[i] * phi[i]
	}
	return lower, upper
}

// L2 returns the Euclidean norm of v.
func L2(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
