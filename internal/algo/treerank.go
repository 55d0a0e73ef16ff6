package algo

import (
	"math"

	"gridrank/internal/rtree"
	"gridrank/internal/stats"
	"gridrank/internal/vec"
)

// This file holds the branch-and-bound counting primitives shared by the
// tree-based baselines BBR and MPA. Each MBR bound evaluation costs d
// multiplications — the same as one exact score — so it is counted as one
// pairwise computation, which is how the paper's Figure 11b/11d can show
// the tree methods performing MORE pairwise computations than a scan.

// treeRankBounded counts the points of the subtree under n whose score
// under w is strictly below fq, stopping at cutoff. Whole subtrees are
// counted (score upper corner below fq) or skipped (lower corner at or
// above fq) without descending. ok is false when the cutoff was reached.
func treeRankBounded(n *rtree.Node, w vec.Vector, fq float64, cutoff int, c *stats.Counters) (int, bool) {
	count := 0
	var visit func(n *rtree.Node) bool
	visit = func(n *rtree.Node) bool {
		if c != nil {
			c.NodesVisited++
			if n.Leaf() {
				c.LeavesVisited++
			}
		}
		// Upper corner: max_{p∈MBR} f_w(p) = Σ w[i]·Hi[i].
		if c != nil {
			c.PairwiseMults++
		}
		if vec.Dot(w, n.MBR.Hi) < fq {
			count += n.Size
			return count < cutoff
		}
		// Lower corner: min_{p∈MBR} f_w(p) = Σ w[i]·Lo[i].
		if c != nil {
			c.PairwiseMults++
		}
		if vec.Dot(w, n.MBR.Lo) >= fq {
			return true // no point in this subtree can beat q
		}
		if n.Leaf() {
			for _, e := range n.Entries {
				if c != nil {
					c.PairwiseMults++
					c.PointsVisited++
				}
				if vec.Dot(w, e.Point) < fq {
					count++
					if count >= cutoff {
						return false
					}
				}
			}
			return true
		}
		for _, child := range n.Children {
			if !visit(child) {
				return false
			}
		}
		return true
	}
	if n == nil || cutoff <= 0 {
		return 0, cutoff > 0
	}
	ok := visit(n)
	if !ok {
		return cutoff, false
	}
	return count, true
}

// beatMargin is m′, the margin the box tests of countBeatAll and
// countBeatSome demand of the computed bound s = vec.MaxDiffScore or
// vec.MinDiffScore of w·(p−q) over the weight box [wlo, whi] (upper
// corner whi): p beats q for every stored weight in the box when
// s < −m′, and can beat q for some stored weight only when s < +m′.
//
// m′ = m + 2·γ_{d+2}·Σ_i whi_i·|p_i − q_i|, where m = dominanceMargin(q)
// covers the rounding of the two scores (algo.go's proof, with the
// weight sum at most 1 + 10⁻⁶ rather than cancelled: if the exact
// w·(p − q) < −m then ŝ(p) < ŝ(q), and if it is > +m then ŝ(p) > ŝ(q)).
// The second term covers the rounding of s itself: the d differences,
// d products and d additions are at most d + 2 roundings per term, so
// the computed s is within γ_{d+2}·Σ_i w*_i·|p_i − q_i| of the exact
// corner value, w* ≤ whi the corner's weights. The factor 2 absorbs
// the rounding of the sum that bounds it.
func beatMargin(p, q, whi vec.Vector, m float64) float64 {
	var a float64
	for i, x := range p {
		a += whi[i] * math.Abs(x-q[i])
	}
	return m + 2*gamma(len(p)+2)*a
}

// countBeatAll counts points p under n that beat q for EVERY weight in the
// box [wlo, whi]: max_{w∈box} w·(p−q) < −m′ (beatMargin, with m =
// dominanceMargin(q)), so every counted point scores strictly below q
// under every stored weight in the box even after rounding. This is the
// group-level rank lower bound of BBR and MPA. The count stops at cutoff.
func countBeatAll(n *rtree.Node, q, wlo, whi vec.Vector, m float64, cutoff int, c *stats.Counters) int {
	count := 0
	var visit func(n *rtree.Node) bool
	visit = func(n *rtree.Node) bool {
		if c != nil {
			c.NodesVisited++
			c.PairwiseMults++
		}
		// max over p∈MBR and w∈box of w·(p−q): attained at p = Hi.
		if hi := n.MBR.Hi; vec.MaxDiffScore(hi, q, wlo, whi) < -beatMargin(hi, q, whi, m) {
			count += n.Size
			return count < cutoff
		}
		// min over p∈MBR of the per-point max: attained at p = Lo. If even
		// the easiest point fails, no point in the subtree qualifies.
		// Skipping only ever counts less, so a lower bound needs no margin
		// here.
		if c != nil {
			c.PairwiseMults++
		}
		if vec.MaxDiffScore(n.MBR.Lo, q, wlo, whi) >= 0 {
			return true
		}
		if n.Leaf() {
			if c != nil {
				c.LeavesVisited++
			}
			for _, e := range n.Entries {
				if c != nil {
					c.PairwiseMults++
					c.PointsVisited++
				}
				if vec.MaxDiffScore(e.Point, q, wlo, whi) < -beatMargin(e.Point, q, whi, m) {
					count++
					if count >= cutoff {
						return false
					}
				}
			}
			return true
		}
		for _, child := range n.Children {
			if !visit(child) {
				return false
			}
		}
		return true
	}
	if n == nil || cutoff <= 0 {
		return 0
	}
	visit(n)
	if count > cutoff {
		count = cutoff
	}
	return count
}

// countBeatSome counts points p under n that can beat q for AT LEAST ONE
// weight in the box: min_{w∈box} w·(p−q) < +m′ (beatMargin), so a point
// whose computed score can fall below q's under some stored weight — an
// exact tie or a near-tie included — is always counted. This
// upper-bounds the rank of every individual weight in the box. The count
// stops at cutoff.
func countBeatSome(n *rtree.Node, q, wlo, whi vec.Vector, m float64, cutoff int, c *stats.Counters) int {
	count := 0
	var visit func(n *rtree.Node) bool
	visit = func(n *rtree.Node) bool {
		if c != nil {
			c.NodesVisited++
			c.PairwiseMults++
		}
		// max over p∈MBR of the per-point min: attained at p = Hi. If even
		// the hardest point qualifies, the whole subtree does.
		if hi := n.MBR.Hi; vec.MinDiffScore(hi, q, wlo, whi) < beatMargin(hi, q, whi, m) {
			count += n.Size
			return count < cutoff
		}
		// min over p∈MBR and w∈box: attained at p = Lo. If it clears the
		// margin, no point in the subtree can beat q for any weight in
		// the box.
		if c != nil {
			c.PairwiseMults++
		}
		if lo := n.MBR.Lo; vec.MinDiffScore(lo, q, wlo, whi) >= beatMargin(lo, q, whi, m) {
			return true
		}
		if n.Leaf() {
			if c != nil {
				c.LeavesVisited++
			}
			for _, e := range n.Entries {
				if c != nil {
					c.PairwiseMults++
					c.PointsVisited++
				}
				if vec.MinDiffScore(e.Point, q, wlo, whi) < beatMargin(e.Point, q, whi, m) {
					count++
					if count >= cutoff {
						return false
					}
				}
			}
			return true
		}
		for _, child := range n.Children {
			if !visit(child) {
				return false
			}
		}
		return true
	}
	if n == nil || cutoff <= 0 {
		return 0
	}
	visit(n)
	if count > cutoff {
		count = cutoff
	}
	return count
}
