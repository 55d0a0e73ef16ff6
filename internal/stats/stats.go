// Package stats provides the explicit operation counters used to reproduce
// the paper's cost metrics: pairwise multiplications (the dominant CPU cost
// identified in Section 1.2), bound-sum evaluations of the Grid-index,
// visited data points and R-tree nodes, and refinement counts.
//
// Counters are plain values passed by pointer; there is no global state, so
// the benchmark harness can run queries on separate goroutines with separate
// counters and merge the results afterwards.
package stats

import "fmt"

// Counters accumulates operation counts across one or more queries.
type Counters struct {
	// PairwiseMults counts full inner-product evaluations f_w(p), each of
	// which costs d multiplications. This is the "number of pairwise
	// computations" metric of Figures 11b/11d.
	PairwiseMults int64

	// BoundSums counts Grid-index bound evaluations (Equations 3 and 4),
	// each of which costs d additions and d table lookups but zero
	// multiplications.
	BoundSums int64

	// PointsVisited counts accesses to original (full-precision) data
	// points, the metric of Figure 15a.
	PointsVisited int64

	// ApproxVisited counts accesses to approximate vectors.
	ApproxVisited int64

	// NodesVisited counts R-tree node accesses (internal + leaf).
	NodesVisited int64

	// LeavesVisited counts R-tree leaf node accesses.
	LeavesVisited int64

	// CellsVisited counts histogram cell accesses (MPA).
	CellsVisited int64

	// Refinements counts Case-3 candidates whose exact score had to be
	// computed after Grid filtering.
	Refinements int64

	// Filtered counts points decided by Grid bounds alone (Case 1 or 2).
	// It always equals Case1Filtered + Case2Filtered.
	Filtered int64

	// Case1Filtered counts points whose lower bound already exceeded the
	// query score (Case 1, Section 3.1): they raise the rank without an
	// exact evaluation.
	Case1Filtered int64

	// Case2Filtered counts points whose upper bound fell below the query
	// score (Case 2): they are discarded without an exact evaluation.
	Case2Filtered int64

	// WeightsPruned counts weight vectors (or whole weight groups) discarded
	// without individual rank evaluation.
	WeightsPruned int64

	// Dominators counts the products GIR's pre-pass found dominating the
	// query by the rounding margin, before any preference was ranked.
	// They count into every preference's rank; a reverse top-k pass stops
	// at k, which decides the (empty) answer without a scan.
	Dominators int64

	// Queries counts completed queries, so averages can be reported.
	Queries int64
}

// Add merges o into c.
func (c *Counters) Add(o *Counters) {
	c.PairwiseMults += o.PairwiseMults
	c.BoundSums += o.BoundSums
	c.PointsVisited += o.PointsVisited
	c.ApproxVisited += o.ApproxVisited
	c.NodesVisited += o.NodesVisited
	c.LeavesVisited += o.LeavesVisited
	c.CellsVisited += o.CellsVisited
	c.Refinements += o.Refinements
	c.Filtered += o.Filtered
	c.Case1Filtered += o.Case1Filtered
	c.Case2Filtered += o.Case2Filtered
	c.WeightsPruned += o.WeightsPruned
	c.Dominators += o.Dominators
	c.Queries += o.Queries
}

// Merge sums per-worker counter sets into dst. This is the merge step of
// the package's concurrency design: query workers count into private
// Counters and the coordinator folds them together once the goroutines
// have joined, so the hot loops never touch shared memory.
func Merge(dst *Counters, parts []Counters) {
	for i := range parts {
		dst.Add(&parts[i])
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// FilterRate returns the fraction of Grid-checked points decided without an
// exact score computation: Filtered / (Filtered + Refinements).
// It returns 0 when nothing was checked.
func (c *Counters) FilterRate() float64 {
	total := c.Filtered + c.Refinements
	if total == 0 {
		return 0
	}
	return float64(c.Filtered) / float64(total)
}

// PerQuery returns a copy of c scaled to a single-query average.
// It returns c unchanged when Queries <= 1.
func (c *Counters) PerQuery() Counters {
	if c.Queries <= 1 {
		return *c
	}
	n := c.Queries
	return Counters{
		PairwiseMults: c.PairwiseMults / n,
		BoundSums:     c.BoundSums / n,
		PointsVisited: c.PointsVisited / n,
		ApproxVisited: c.ApproxVisited / n,
		NodesVisited:  c.NodesVisited / n,
		LeavesVisited: c.LeavesVisited / n,
		CellsVisited:  c.CellsVisited / n,
		Refinements:   c.Refinements / n,
		Filtered:      c.Filtered / n,
		Case1Filtered: c.Case1Filtered / n,
		Case2Filtered: c.Case2Filtered / n,
		WeightsPruned: c.WeightsPruned / n,
		Dominators:    c.Dominators / n,
		Queries:       1,
	}
}

// String renders the non-zero counters compactly, for logs and examples.
func (c *Counters) String() string {
	s := fmt.Sprintf("queries=%d mults=%d boundSums=%d", c.Queries, c.PairwiseMults, c.BoundSums)
	if c.Filtered+c.Refinements > 0 {
		s += fmt.Sprintf(" filtered=%d refined=%d (rate %.2f%%)",
			c.Filtered, c.Refinements, 100*c.FilterRate())
	}
	if c.NodesVisited > 0 {
		s += fmt.Sprintf(" nodes=%d leaves=%d", c.NodesVisited, c.LeavesVisited)
	}
	if c.CellsVisited > 0 {
		s += fmt.Sprintf(" cells=%d", c.CellsVisited)
	}
	if c.WeightsPruned > 0 {
		s += fmt.Sprintf(" weightsPruned=%d", c.WeightsPruned)
	}
	if c.Dominators > 0 {
		s += fmt.Sprintf(" dominators=%d", c.Dominators)
	}
	return s
}
