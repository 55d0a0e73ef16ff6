// Package algo implements every query algorithm of the paper:
//
//   - Brute: the exact reference (no pruning), used as ground truth.
//   - SIM: the simple scan with the Domin buffer and early termination
//     (Section 6.1's baseline).
//   - GIR: the Grid-index algorithms of Section 4 — GInTop-k (Alg. 1),
//     GIRTop-k (Alg. 2) and GIRk-Rank (Alg. 3) — the paper's contribution.
//   - BBR: branch-and-bound reverse top-k over two R-trees (Vlachou et
//     al. SIGMOD'13), the paper's tree-based RTK comparator.
//   - MPA: marked pruning approach for reverse k-ranks over a W-histogram
//     and a P R-tree (Zhang et al. VLDB'14), the RKR comparator.
//   - RTA: the threshold-buffer reverse top-k of Vlachou et al. ICDE'10,
//     an additional related-work baseline.
//
// All algorithms implement identical semantics (see the package-level
// contract below) and are cross-validated against Brute in the tests.
//
// # Query contract
//
// rank(w, q) is the number of points of P whose score under w is strictly
// below f_w(q); ties never count against q (the q-favouring reading of
// the paper's Definition 2).
//
// ReverseTopK(q, k) returns the indexes of all w with rank(w, q) < k, in
// ascending order.
//
// ReverseKRanks(q, k) returns the k weights with the smallest rank, ties
// broken toward smaller weight indexes, ordered by (rank, index).
// When |W| < k, all weights are returned.
//
// Algorithms are safe for concurrent queries: all per-query state is
// allocated per call.
package algo

import (
	"math"

	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// RTKAlgorithm answers reverse top-k queries.
type RTKAlgorithm interface {
	Name() string
	// ReverseTopK returns the ascending indexes of all weights that place
	// q inside their top-k.
	ReverseTopK(q vec.Vector, k int, c *stats.Counters) []int
}

// RKRAlgorithm answers reverse k-ranks queries.
type RKRAlgorithm interface {
	Name() string
	// ReverseKRanks returns the k best (weight, rank) matches for q.
	ReverseKRanks(q vec.Vector, k int, c *stats.Counters) []topk.Match
}

// Dominance by more than the rounding margin.
//
// Algorithm 1's Domin buffer and Algorithm 2's early exit rest on one
// fact: a product p that is smaller than q on every attribute scores
// below q under every non-negative weight vector. That holds in real
// arithmetic, but ranks compare computed scores, and a product one ulp
// below q in every coordinate can score exactly f_w(q) under some w —
// a tie, which never counts against q. Every dominance test of this
// package therefore asks for more: p dominates q by the margin m(q)
// when q_i − p_i > m(q) on every attribute, with
//
//	m(q) = 3·γ_d·max_i |q_i|,   γ_d = d·u/(1 − d·u),   u = 2⁻⁵³.
//
// Proof that such a p scores strictly below q under every stored
// preference w (attributes and weights non-negative, w ≠ 0, no
// underflow). vec.Dot sums d products in index order, so its computed
// value ŝ(x) satisfies |ŝ(x) − w·x| ≤ γ_d·Σ_i w_i·|x_i| (Higham,
// Accuracy and Stability of Numerical Algorithms, §3.1; a fused
// multiply-add only removes roundings). With 0 ≤ p_i < q_i both error
// terms are at most γ_d·max_i q_i·Σ_i w_i, hence
//
//	ŝ(p) − ŝ(q) ≤ w·(p − q) + 2·γ_d·max_i q_i·Σ_i w_i
//	            < −m(q)·Σ_i w_i + 2·γ_d·max_i q_i·Σ_i w_i < 0,
//
// the strict step because some w_i > 0 and q_i − p_i > m(q) on every
// attribute. The weight sum cancels, so the bound holds for any
// non-zero w; stored preferences sum to 1 ± 10⁻⁶. The factor 3 rather
// than 2 leaves room for the rounding of m(q) itself and of the
// per-query thresholds q_i − m(q) (dominanceBounds), each a few ulps of
// max_i q_i against a slack of γ_d·max_i q_i ≥ u·max_i q_i; and it lets
// the tree baselines' box tests (beatMargin), where the weight sum does
// not cancel, reuse m(q) for weight sums up to 1.49.
//
// A near-tie product that fails the margin test is not lost: the scans
// count it by exact scoring like any other row.

// unitRoundoff is u = 2⁻⁵³, the unit roundoff of float64.
const unitRoundoff = 0x1p-53

// gamma is γ_n = n·u/(1 − n·u), the relative error bound of an n-term
// floating-point sum of products.
func gamma(n int) float64 {
	nu := float64(n) * unitRoundoff
	return nu / (1 - nu)
}

// dominanceMargin is m(q) = 3·γ_d·max_i |q_i|, the margin by which a
// product must undercut q on every attribute to count as a dominator.
func dominanceMargin(q vec.Vector) float64 {
	mx := 0.0
	for _, x := range q {
		mx = max(mx, math.Abs(x))
	}
	return 3 * gamma(len(q)) * mx
}

// dominanceBounds fills t, of q's length, with the per-attribute
// thresholds q_i − m(q) and returns it: p dominates q by the margin
// exactly when p_i < t_i on every attribute (belowAll).
func dominanceBounds(t []float64, q vec.Vector) []float64 {
	m := dominanceMargin(q)
	t = t[:len(q)]
	for i, x := range q {
		t[i] = x - m
	}
	return t
}

// belowAll reports whether p_i < t_i on every attribute. t must be at
// least as long as p.
func belowAll(p, t []float64) bool {
	t = t[:len(p)]
	for i, x := range p {
		if !(x < t[i]) {
			return false
		}
	}
	return true
}

// domin is the Domin buffer of Algorithm 1, as SIM and SparseGIR keep
// it: the set of points known to dominate q by the rounding margin,
// which therefore rank above q under every stored weight vector. It
// memoizes dominance checks so each point is tested at most once per
// query. GIR finds its dominators up front instead (dominSet, gir.go).
type domin struct {
	dominates []bool
	checked   []bool
	count     int
	t         []float64 // dominanceBounds(q)
}

// newDomin returns an empty buffer for query q over n points.
func newDomin(n int, q vec.Vector) *domin {
	return &domin{
		dominates: make([]bool, n),
		checked:   make([]bool, n),
		t:         dominanceBounds(make([]float64, len(q)), q),
	}
}

// has reports whether point pj is a known dominator of q.
func (d *domin) has(pj int) bool { return d.dominates[pj] }

// observe tests dominance of point pj, p, over q once; subsequent calls
// are free.
func (d *domin) observe(pj int, p vec.Vector) {
	if d.checked[pj] {
		return
	}
	d.checked[pj] = true
	if belowAll(p, d.t) {
		d.dominates[pj] = true
		d.count++
	}
}

// maxInt is the unbounded cutoff used before a k-ranks heap fills.
const maxInt = int(^uint(0) >> 1)
