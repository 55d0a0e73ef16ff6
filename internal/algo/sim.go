package algo

import (
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// SIM is the optimized simple scan of Section 6.1: for each weight vector
// it scans P computing exact scores, maintains the Domin buffer of points
// known to dominate q by the rounding margin (algo.go; they count into
// every later rank for free), and terminates a weight's scan as soon as
// its rank can no longer satisfy the query condition. Apart from finding
// dominators lazily, the difference between SIM and GIR is that SIM
// computes every score directly instead of filtering with Grid bounds.
type SIM struct {
	P []vec.Vector
	W []vec.Vector

	// DisableDomin turns off the Domin buffer, for the ablation study.
	DisableDomin bool
}

// NewSIM validates shapes and returns the scan baseline.
func NewSIM(P, W []vec.Vector) *SIM {
	validateSets(P, W)
	return &SIM{P: P, W: W}
}

// Name implements RTKAlgorithm and RKRAlgorithm.
func (s *SIM) Name() string { return "SIM" }

// rankBounded counts q's rank under w by scanning P, skipping known
// dominators (pre-counted) and stopping at cutoff. ok is false when the
// cutoff was reached.
func (s *SIM) rankBounded(w, q vec.Vector, cutoff int, dom *domin, c *stats.Counters) (int, bool) {
	fq := vec.Dot(w, q)
	if c != nil {
		c.PairwiseMults++
	}
	rnk := dom.count
	if rnk >= cutoff {
		return cutoff, false
	}
	for pj, p := range s.P {
		if dom.has(pj) {
			continue
		}
		if c != nil {
			c.PairwiseMults++
			c.PointsVisited++
		}
		if vec.Dot(w, p) < fq {
			rnk++
			if !s.DisableDomin {
				dom.observe(pj, p)
			}
			if rnk >= cutoff {
				return cutoff, false
			}
		}
	}
	return rnk, true
}

// ReverseTopK returns all weight indexes whose rank of q is below k.
func (s *SIM) ReverseTopK(q vec.Vector, k int, c *stats.Counters) []int {
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 {
		return nil
	}
	dom := newDomin(len(s.P), q)
	var res []int
	for wi, w := range s.W {
		if _, ok := s.rankBounded(w, q, k, dom, c); ok {
			res = append(res, wi)
		}
		// Algorithm 2's global exit: k dominators imply an empty answer
		// for every weight vector.
		if dom.count >= k {
			return nil
		}
	}
	return res
}

// ReverseKRanks returns the k weights ranking q best, using the
// self-refining threshold of Algorithm 3 to bound each scan.
func (s *SIM) ReverseKRanks(q vec.Vector, k int, c *stats.Counters) []topk.Match {
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 {
		return nil
	}
	h := topk.NewKRankHeap(k)
	dom := newDomin(len(s.P), q)
	for wi, w := range s.W {
		if rnk, ok := s.rankBounded(w, q, h.Threshold(), dom, c); ok {
			h.Offer(topk.Match{WeightIndex: wi, Rank: rnk})
		}
	}
	return h.Results()
}
