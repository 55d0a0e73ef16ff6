package algo

import (
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// Aggregate reverse rank queries (Dong et al., DEXA 2016 — the paper's
// reference [7]) extend reverse k-ranks from one product to a bundle: the
// aggregate rank of a preference w for a query set Q is Σ_{q∈Q} rank(w,q),
// and the query returns the k preferences minimizing it. The use case is
// product bundling: which customers like this whole set best?

// AggMatch is one aggregate reverse rank result.
type AggMatch struct {
	WeightIndex int
	// AggRank is the sum over the query bundle of the number of products
	// ranked strictly above each query product.
	AggRank int
}

// AggregateReverseRank (brute force) evaluates Σ rank(w, q) for every
// preference and keeps the k best. Ties resolve toward smaller indexes.
func (b *Brute) AggregateReverseRank(Q []vec.Vector, k int, c *stats.Counters) []AggMatch {
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 || len(Q) == 0 {
		return nil
	}
	h := topk.NewKRankHeap(k)
	for wi, w := range b.W {
		total := 0
		for _, q := range Q {
			total += topk.Rank(b.P, w, q, c)
		}
		h.Offer(topk.Match{WeightIndex: wi, Rank: total})
	}
	return toAggMatches(h.Results())
}

// AggregateReverseRank (GIR) computes the same answer with Grid-index
// filtering and a budgeted early exit: once the running aggregate of a
// preference reaches the heap's admission threshold, the remaining bundle
// members need not be ranked at all. The scan counts its work as every
// GIR scan does; the counts are added to sink when one is given.
func (gr *GIR) AggregateReverseRank(Q []vec.Vector, k int, sink *stats.Counters) []AggMatch {
	c := stats.Counters{Queries: 1}
	if sink != nil {
		defer func() { sink.Add(&c) }()
	}
	if k <= 0 || len(Q) == 0 {
		return nil
	}
	// One Domin buffer per bundle member: dominance is per query point
	// and reusable across all preferences.
	doms := make([]*domin, len(Q))
	for i := range doms {
		doms[i] = gr.newGroupedDomin()
	}
	scratch := gr.newScratch()
	h := topk.NewKRankHeap(k)
	for wi, nW := 0, gr.wm.Len(); wi < nW; wi++ {
		budget := h.Threshold()
		total := 0
		rejected := false
		for qi, q := range Q {
			remaining := budget
			if budget != maxInt {
				remaining = budget - total
			}
			if remaining <= 0 {
				rejected = true
				break
			}
			rnk, ok := gr.rankBounded(wi, q, remaining, doms[qi], scratch, &c)
			if !ok {
				rejected = true
				break
			}
			total += rnk
		}
		if !rejected {
			h.Offer(topk.Match{WeightIndex: wi, Rank: total})
		}
	}
	return toAggMatches(h.Results())
}

func toAggMatches(ms []topk.Match) []AggMatch {
	out := make([]AggMatch, len(ms))
	for i, m := range ms {
		out[i] = AggMatch{WeightIndex: m.WeightIndex, AggRank: m.Rank}
	}
	return out
}
