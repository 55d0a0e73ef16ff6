package algo

import (
	"sort"

	"gridrank/internal/rtree"
	"gridrank/internal/stats"
	"gridrank/internal/vec"
)

// BBR is the branch-and-bound reverse top-k algorithm (Vlachou et al.,
// SIGMOD 2013), the paper's state-of-the-art tree-based RTK comparator:
// both P and W are indexed in R-trees; W-tree nodes are qualified or
// disqualified wholesale using group-level rank bounds computed against
// the P-tree, and only undecided leaf weights fall back to individual
// branch-and-bound rank counting.
type BBR struct {
	P []vec.Vector
	W []vec.Vector

	pt *rtree.Tree // R-tree over P
	wt *rtree.Tree // R-tree over W
}

// NewBBR bulk-loads both R-trees with the given node capacity.
func NewBBR(P, W []vec.Vector, capacity int) *BBR {
	validateSets(P, W)
	return &BBR{
		P:  P,
		W:  W,
		pt: rtree.Bulk(P, capacity),
		wt: rtree.Bulk(W, capacity),
	}
}

// Name implements RTKAlgorithm.
func (b *BBR) Name() string { return "BBR" }

// PointTree exposes the P R-tree (for the harness's Table 3 / Figure 15a
// instrumentation).
func (b *BBR) PointTree() *rtree.Tree { return b.pt }

// ReverseTopK descends the W-tree. For a node covering weight box
// [wlo, whi]:
//
//   - if at least k points beat q for EVERY weight in the box, every
//     weight under the node is disqualified and the node is pruned;
//   - if fewer than k points beat q for even SOME weight in the box, every
//     weight under the node is qualified and added wholesale;
//   - otherwise the node is expanded, with exact bounded rank counting
//     (against the P-tree) at the leaves.
func (b *BBR) ReverseTopK(q vec.Vector, k int, c *stats.Counters) []int {
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 {
		return nil
	}
	var res []int
	b.visitWNode(b.wt.Root(), q, dominanceMargin(q), k, &res, c)
	sort.Ints(res)
	return res
}

func (b *BBR) visitWNode(n *rtree.Node, q vec.Vector, m float64, k int, res *[]int, c *stats.Counters) {
	if c != nil {
		c.NodesVisited++
	}
	wlo, whi := n.MBR.Lo, n.MBR.Hi
	// Group-level lower bound on every weight's rank.
	if countBeatAll(b.pt.Root(), q, wlo, whi, m, k, c) >= k {
		if c != nil {
			c.WeightsPruned += int64(n.Size)
		}
		return
	}
	// Group-level upper bound: if even the loosest rank stays below k,
	// every weight in the box qualifies.
	if countBeatSome(b.pt.Root(), q, wlo, whi, m, k, c) < k {
		appendWeights(n, res)
		return
	}
	if n.Leaf() {
		for _, e := range n.Entries {
			fq := vec.Dot(e.Point, q)
			if c != nil {
				c.PairwiseMults++
			}
			if _, ok := treeRankBounded(b.pt.Root(), e.Point, fq, k, c); ok {
				*res = append(*res, e.Index)
			}
		}
		return
	}
	for _, child := range n.Children {
		b.visitWNode(child, q, m, k, res, c)
	}
}

// appendWeights collects every weight index under n.
func appendWeights(n *rtree.Node, res *[]int) {
	if n.Leaf() {
		for _, e := range n.Entries {
			*res = append(*res, e.Index)
		}
		return
	}
	for _, c := range n.Children {
		appendWeights(c, res)
	}
}
