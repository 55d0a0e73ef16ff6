package algo

import (
	"fmt"
	"sort"

	"gridrank/internal/histogram"
	"gridrank/internal/rtree"
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// MPA is the marked pruning approach for reverse k-ranks (Zhang et al.,
// VLDB 2014), the paper's tree-based RKR comparator: W is grouped by a
// d-dimensional equi-width histogram and P is indexed in an R-tree. Each
// bucket gets a group-level rank lower bound (points beating q for every
// weight in the bucket's box, counted against the P-tree); buckets whose
// bound cannot beat the current k-th best rank are "marked" and pruned
// wholesale, and surviving buckets refine their weights individually with
// bounded rank counting.
type MPA struct {
	P []vec.Vector
	W []vec.Vector

	pt   *rtree.Tree
	hist *histogram.Histogram
}

// NewMPA builds the P R-tree and the W histogram (c intervals per
// dimension, the paper's c = 5 by default). Weights must lie in [0, 1].
func NewMPA(P, W []vec.Vector, capacity, intervals int) (*MPA, error) {
	validateSets(P, W)
	h, err := histogram.New(W, intervals)
	if err != nil {
		return nil, fmt.Errorf("algo: building MPA histogram: %w", err)
	}
	return &MPA{P: P, W: W, pt: rtree.Bulk(P, capacity), hist: h}, nil
}

// Name implements RKRAlgorithm.
func (m *MPA) Name() string { return "MPA" }

// PointTree exposes the P R-tree for instrumentation.
func (m *MPA) PointTree() *rtree.Tree { return m.pt }

// Histogram exposes the weight histogram for instrumentation.
func (m *MPA) Histogram() *histogram.Histogram { return m.hist }

// ReverseKRanks computes the k best weights in two phases: group-level
// lower bounds per bucket (ordered ascending so the heap's threshold
// tightens as early as possible), then per-weight refinement of the
// buckets that survive the mark test.
func (m *MPA) ReverseKRanks(q vec.Vector, k int, c *stats.Counters) []topk.Match {
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 {
		return nil
	}
	buckets := m.hist.Buckets()
	type scored struct {
		b  *histogram.Bucket
		lb int
	}
	order := make([]scored, len(buckets))
	mq := dominanceMargin(q)
	for i, b := range buckets {
		if c != nil {
			c.CellsVisited++
		}
		order[i] = scored{b: b, lb: countBeatAll(m.pt.Root(), q, b.Lo, b.Hi, mq, len(m.P), c)}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].lb != order[b].lb {
			return order[a].lb < order[b].lb
		}
		// Deterministic order on ties: earliest weight in the bucket.
		return order[a].b.Weights[0] < order[b].b.Weights[0]
	})
	h := topk.NewKRankHeap(k)
	for _, sc := range order {
		// Mark test: the group bound lower-bounds every member's rank.
		// Unlike the index-ordered scans, MPA visits weights out of index
		// order, so a weight whose rank equals the threshold can still win
		// its tie-break; pruning therefore requires lb strictly above the
		// threshold, and refinement counts up to threshold+1.
		if sc.lb > h.Threshold() {
			if c != nil {
				c.WeightsPruned += int64(len(sc.b.Weights))
			}
			continue
		}
		for _, wi := range sc.b.Weights {
			w := m.W[wi]
			fq := vec.Dot(w, q)
			if c != nil {
				c.PairwiseMults++
			}
			cutoff := h.Threshold()
			if cutoff < maxInt {
				cutoff++
			}
			if rnk, ok := treeRankBounded(m.pt.Root(), w, fq, cutoff, c); ok {
				h.Offer(topk.Match{WeightIndex: wi, Rank: rnk})
			}
		}
	}
	return h.Results()
}
