package algo

import (
	"gridrank/internal/stats"
	"gridrank/internal/vec"
)

// RankOf evaluates rank(W[wi], q) — the number of points scoring
// strictly below q under preference wi — bounded by cutoff, with
// rankBounded's contract: ok reports that the exact rank is below
// cutoff; when the running count reaches cutoff the scan stops and
// returns (cutoff, false). A cutoff <= 0 means unbounded (the exact
// rank is always returned).
//
// This is the answer cache's splice oracle: a preference insert asks,
// per cached entry, whether the new preference wins admission — one
// bounded rank evaluation instead of a full reverse scan. The call
// borrows a pooled query state, so it is allocation-free in steady
// state and safe for concurrent use. It runs no dominator pre-pass — one
// pass over the products would cost about as much as the one rank it
// serves — so the scan counts dominators like any other row. Its work
// is part of an epoch install, not of a query, so its counts are not
// reported.
func (gr *GIR) RankOf(wi int, q vec.Vector, cutoff int) (int, bool) {
	if cutoff <= 0 {
		cutoff = maxInt
	}
	st := gr.getState()
	defer gr.putState(st)
	var c stats.Counters
	return gr.rankBounded(wi, q, cutoff, st.dom, st.scratch, &c)
}
