package algo

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gridrank/internal/bits"
	"gridrank/internal/grid"
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/trace"
	"gridrank/internal/vec"
)

// GIR is the Grid-index algorithm of Section 4. Construction pre-computes
// the Grid-index (boundary-product table), the approximate vectors P^(A)
// and W^(A), and their cell groupings (distinct approximate rows with
// member lists); queries then scan the approximate vectors, decide most
// points from the Grid bounds alone (Cases 1 and 2 of Section 3.1, d table
// lookups and additions, zero multiplications), and compute exact scores
// only for the Case-3 candidates that survive.
//
// Three layout decisions make the scan cost proportional to DISTINCT grid
// cells rather than raw data size (see DESIGN.md §9 and §13):
//
//   - Points sharing an approximate vector receive identical bounds under
//     every weight, so the bound evaluation runs once per point group and
//     Case 1/2 classify the whole group at once.
//   - Weights sharing an approximate vector select identical grid columns,
//     so the scan visits W in cell-sorted order and re-gathers the
//     bound scratch only when the weight group changes.
//   - The distinct point rows are stored bit-packed at PackedWidth(n)
//     bits per cell (Section 3.2's b·d-bit strings) and classified four
//     rows per kernel call (gir_packed.go).
//
// P and W are stored as contiguous row-major matrices (Point/Weight
// return stride-d views into that storage), so the Case-3 refinement
// dots stream sequential memory. The matrices may alias memory the
// caller owns — including an mmap-ed index file — which is why nothing
// here ever builds per-row headers eagerly or writes into them.
type GIR struct {
	pm *vec.Matrix
	wm *vec.Matrix

	// DisableDomin skips the dominator pre-pass (Algorithm 2 lines 7–8,
	// run as each query's first step; see dominSet). Queries stay
	// correct, since the scan then counts every dominator by its bounds
	// or its exact score; the flag exists for the ablation experiment
	// that measures what the pre-pass is worth.
	DisableDomin bool

	g  grid.Bounder
	pa *grid.Index        // P^(A)
	wa *grid.Index        // W^(A)
	pg *grid.GroupedIndex // distinct P^(A) rows with member lists
	wg *grid.GroupedIndex // distinct W^(A) rows; MemberOrder is the scan order

	// pk is pg's packed row store at PackedWidth(g.N()) bits per cell,
	// cached so the hot loop reaches it in one load.
	pk *bits.PackedRows

	// pool recycles per-query state (dominator set, bound scratch, result
	// heap and buffers) so steady-state queries allocate only their result
	// slice. Shared by the inline scan and the fanned-out workers.
	pool sync.Pool
}

// DefaultPartitions is the paper's default grid resolution n = 32
// (sufficient for >99% filtering up to d ≈ 20 by Theorem 1).
const DefaultPartitions = 32

// Packed-width limits: below 4 bits a grid would have at most 8
// partitions (too coarse to be worth a narrower kernel), above 8 a cell
// no longer fits the uint8 cell rows the rest of the pipeline shares.
const (
	MinPackedBits = 4
	MaxPackedBits = 8
)

// PackedWidth is the packed cell width of an n-partition grid: the
// smallest b in [MinPackedBits, MaxPackedBits] with 2^b ≥ n. Every GIR
// stores its point rows at exactly this width — fresh builds, rebuilds,
// derived epochs and loaded files alike — so a grid size determines the
// scan kernel and the saved bytes.
func PackedWidth(n int) int {
	b := MinPackedBits
	for 1<<b < n && b < MaxPackedBits {
		b++
	}
	return b
}

// NewGIR builds the Grid-index for point attributes in [0, rangeP) with n
// partitions per axis and pre-computes both approximate vector sets.
//
// The weight axis is partitioned over [0, max observed weight component],
// not [0, 1]: the paper divides each axis over "the range of the
// attribute's values", and for simplex weights that range shrinks like
// 1/d — partitioning the full unit interval would leave every weight in
// the first couple of cells and make the upper bound useless in high
// dimensions.
func NewGIR(P, W []vec.Vector, rangeP float64, n int) *GIR {
	validateSets(P, W)
	if n < 1 {
		panic(fmt.Sprintf("algo: grid partitions %d < 1", n))
	}
	return NewGIRWithBounder(P, W, grid.New(n, rangeP, maxComponent(W)))
}

// maxComponent returns the largest vector component, used as the weight
// axis range. The result is nudged up one ulp so the maximum itself maps
// strictly inside the last cell.
func maxComponent(vs []vec.Vector) float64 {
	m := 0.0
	for _, v := range vs {
		for _, x := range v {
			if x > m {
				m = x
			}
		}
	}
	if m <= 0 {
		return 1
	}
	return math.Nextafter(m, math.Inf(1))
}

// CanonicalWeightRange is maxComponent over a weight matrix's flat
// backing — the weight-axis range a fresh build over wm would use. The
// persist layer compares it against a stored grid's RangeW to decide
// whether the weight-side artifacts are still canonical at save time.
// The scan order differs from maxComponent's row order but a maximum is
// order-independent, so the value is bit-identical.
func CanonicalWeightRange(wm *vec.Matrix) float64 {
	m := 0.0
	for _, x := range wm.Data() {
		if x > m {
			m = x
		}
	}
	if m <= 0 {
		return 1
	}
	return math.Nextafter(m, math.Inf(1))
}

// NewGIRWithBounder builds GIR over any grid implementation — the paper's
// equal-width Grid or the adaptive quantile grid of its future work
// (grid.NewAdaptive) — copying the data into contiguous storage and
// pre-computing both approximate vector sets and their cell groupings.
func NewGIRWithBounder(P, W []vec.Vector, g grid.Bounder) *GIR {
	validateSets(P, W)
	return newGIR(vec.NewMatrix(P), vec.NewMatrix(W), g)
}

// NewGIRFromMatrices is NewGIR over pre-flattened data sets, adopting the
// matrices without copying. The root package uses it so the index and the
// algorithm share one backing array per set.
func NewGIRFromMatrices(pm, wm *vec.Matrix, rangeP float64, n int) *GIR {
	if n < 1 {
		panic(fmt.Sprintf("algo: grid partitions %d < 1", n))
	}
	return newGIR(pm, wm, grid.New(n, rangeP, CanonicalWeightRange(wm)))
}

func newGIR(pm, wm *vec.Matrix, g grid.Bounder) *GIR {
	pa := grid.NewPointIndex(g, pm.Rows())
	wa := grid.NewWeightIndex(g, wm.Rows())
	return NewGIRFromParts(GIRParts{
		PM: pm, WM: wm, Grid: g,
		PA: pa, WA: wa,
		PG: grid.NewGrouped(pa), WG: grid.NewGrouped(wa),
	})
}

// GIRParts are the precomputed artifacts NewGIRFromParts assembles a
// GIR from — everything newGIR would otherwise derive, as loaded from a
// GRI3 file. All references are adopted without copying; they may alias
// mapped memory.
type GIRParts struct {
	PM, WM *vec.Matrix
	Grid   grid.Bounder
	PA, WA *grid.Index        // P^(A), W^(A) element cells
	PG, WG *grid.GroupedIndex // their groupings
}

// NewGIRFromParts assembles a GIR from precomputed artifacts without
// re-deriving them: no approximate vectors are recomputed, no rows are
// regrouped, no row headers are materialized — the O(1) constructor the
// mmap load path needs. The one exception is the packed row store: when
// PG does not already carry it at PackedWidth(n) bits (a fresh grouping,
// or a file written unpacked or at another width), PG's unique rows are
// packed onto the heap here, O(groups·d). The caller (the persist layer)
// is responsible for the parts being mutually consistent; shape checks
// that cost more than O(groups) belong there, not here.
func NewGIRFromParts(parts GIRParts) *GIR {
	b := PackedWidth(parts.Grid.N())
	if pk := parts.PG.Packed(); pk == nil || pk.BitsPerDim() != b {
		parts.PG.Pack(b)
	}
	return &GIR{
		pm: parts.PM,
		wm: parts.WM,
		g:  parts.Grid,
		pa: parts.PA,
		wa: parts.WA,
		pg: parts.PG,
		wg: parts.WG,
		pk: parts.PG.Packed(),
	}
}

// PackedBits returns the packed row width, PackedWidth of the grid size.
func (gr *GIR) PackedBits() int { return gr.pk.BitsPerDim() }

// Name implements RTKAlgorithm and RKRAlgorithm.
func (gr *GIR) Name() string { return "GIR" }

// Grid exposes the underlying Grid-index (for diagnostics and the
// experiment harness).
func (gr *GIR) Grid() grid.Bounder { return gr.g }

// PointCells exposes the element-wise approximate point vectors P^(A).
// The persistence layer packs them in element order — unlike the
// grouped store, whose group numbering depends on mutation history —
// so saved packed sections are byte-identical for a mutated index and
// a fresh build over the same data.
func (gr *GIR) PointCells() *grid.Index { return gr.pa }

// WeightCells exposes the element-wise approximate weight vectors
// W^(A), for the persistence layer.
func (gr *GIR) WeightCells() *grid.Index { return gr.wa }

// PointGrouping exposes the distinct-P^(A)-row grouping, for the
// persistence layer.
func (gr *GIR) PointGrouping() *grid.GroupedIndex { return gr.pg }

// WeightGrouping exposes the distinct-W^(A)-row grouping, for the
// persistence layer.
func (gr *GIR) WeightGrouping() *grid.GroupedIndex { return gr.wg }

// Point returns point j as a view into the contiguous backing; callers
// must not modify it.
func (gr *GIR) Point(j int) vec.Vector { return gr.pm.Row(j) }

// Weight returns weight i as a view into the contiguous backing;
// callers must not modify it.
func (gr *GIR) Weight(i int) vec.Vector { return gr.wm.Row(i) }

// NumPoints returns |P|.
func (gr *GIR) NumPoints() int { return gr.pm.Len() }

// NumWeights returns |W|.
func (gr *GIR) NumWeights() int { return gr.wm.Len() }

// PointGroups returns the number of distinct P^(A) rows (diagnostics).
func (gr *GIR) PointGroups() int { return gr.pg.Groups() }

// WeightGroups returns the number of distinct W^(A) rows (diagnostics).
func (gr *GIR) WeightGroups() int { return gr.wg.Groups() }

// rankBounded is GInTop-k (Algorithm 1): it determines rank(w_i, q)
// bounded by cutoff, scanning the DISTINCT P^(A) rows and classifying
// each group with the Grid bounds shared by all its members. ok is false
// when the rank reached cutoff (the paper's "return -1").
//
// Grouped counting is exact (DESIGN.md §9): the returned rank is the
// number of points scoring strictly below f_w(q) — dom's dominators,
// found before the scan and counted into the initial rank, then the
// live members of Case-1 groups in one addition each and Case-3 members
// by exact refinement — so the (rank, ok) contract is identical to the
// per-point scan for every cutoff.
//
// Two deliberate deviations from the paper's pseudocode, both discussed in
// DESIGN.md: the Case-1 test uses strict U < f_w(q) so score ties never
// count against q (Algorithm 1 prints "≤", which would miscount a point
// whose score equals f_w(q) when the upper bound is tight), and the
// cutoff test is rnk ≥ cutoff, matching the prose ("whenever rnk reaches
// k") rather than the printed "rnk > k".
//
// The scan walks the packed row store in blocks of RowBlock live groups:
// one width-specialized kernel call classifies a whole block (see
// gir_packed.go), then the block's groups are consumed one by one in
// scan order. Multi-member refinement lives in a noinline helper below
// to keep its state out of this frame.
//
// Every call counts its work into c, the query's (or the worker's)
// counter set, with the per-group definitions of DESIGN.md §9.
func (gr *GIR) rankBounded(wi int, q vec.Vector, cutoff int, dom *dominSet, scratch *girScratch, c *stats.Counters) (int, bool) {
	w := gr.wm.Row(wi)
	fq := vec.Dot(w, q)
	c.PairwiseMults++
	rnk := len(dom.groups)
	if rnk >= cutoff {
		return cutoff, false
	}
	gr.loadWeightGroup(scratch, int(gr.wg.GroupOf(wi)))
	bnd := scratch.bounds
	pk := gr.pk
	words := pk.Words()
	wpr := pk.WordsPerRow()
	cpw := pk.CodesPerWord()
	b := pk.BitsPerDim()
	d := gr.pa.Dim()
	classify4 := packedClassify4Func(b)
	single := gr.pg.Single()
	groupLive := dom.live
	nG := len(groupLive)
	for g := 0; g < nG; {
		// Gather the next RowBlock groups with live members in scan
		// order, with their live counts. Fully-dominated groups (every
		// member a dominator, counted into the initial rnk) are skipped
		// before classification, so the kernel only ever prices rows
		// that need pricing. The counts are fixed for the whole query.
		var gs, lv [RowBlock]int32
		cnt := 0
		for ; g < nG && cnt < RowBlock; g++ {
			if l := groupLive[g]; l != 0 {
				gs[cnt], lv[cnt] = int32(g), l
				cnt++
			}
		}
		// cs4 == 0 marks "classify scalar" for a short tail gather: real
		// case codes are 1..3 per byte, so a full block never packs to
		// zero.
		cs4 := uint32(0)
		if cnt == RowBlock {
			cs4 = classify4(words, int(gs[0])*wpr, int(gs[1])*wpr, int(gs[2])*wpr, int(gs[3])*wpr, d, bnd, fq)
			// All four rows Case 2 is the scan's most common block: q
			// precedes every member, nothing refines and rnk does not
			// move. It is counted whole and dropped on one compare
			// instead of four unpredictable per-group branches.
			if cs4 == allCaseAfter {
				live := int64(lv[0] + lv[1] + lv[2] + lv[3])
				c.BoundSums += RowBlock
				c.ApproxVisited += RowBlock
				c.Filtered += live
				c.Case2Filtered += live
				continue
			}
		}
		for t := 0; t < cnt; t, cs4 = t+1, cs4>>8 {
			gi, live := int(gs[t]), int(lv[t])
			c.BoundSums++
			c.ApproxVisited++
			cs := int32(cs4 & 0xff)
			if cs == 0 {
				cs = classifyPackedRow(words[gi*wpr:(gi+1)*wpr], cpw, b, d, bnd, fq)
			}
			if cs == caseBefore { // Case 1: the whole group precedes q
				rnk += live
				c.Filtered += int64(live)
				c.Case1Filtered += int64(live)
				if rnk >= cutoff {
					return cutoff, false
				}
				continue
			}
			if cs == caseRefine {
				// Case 3: incomparable — refine with exact scores.
				// Algorithm 1 collects candidates and refines after the
				// scan, but refining immediately keeps rnk an exact running
				// count, so the cutoff fires as early as possible.
				if pj := int(single[gi]); pj >= 0 {
					// Singleton: live > 0 proves the lone member is not a
					// dominator.
					c.PairwiseMults++
					c.Refinements++
					c.PointsVisited++
					if vec.Dot(w, gr.pm.Row(pj)) < fq {
						rnk++
						if rnk >= cutoff {
							return cutoff, false
						}
					}
					continue
				}
				var ok bool
				if rnk, ok = gr.refineGroup(gi, live, w, fq, rnk, cutoff, dom, c); !ok {
					return cutoff, false
				}
			} else { // Case 2: q precedes the whole group
				c.Filtered += int64(live)
				c.Case2Filtered += int64(live)
			}
		}
	}
	return rnk, true
}

// Case codes returned by the classify kernels, numbered as in Section
// 3.1.
const (
	caseBefore int32 = 1 // upper bound below f_w(q): the whole group precedes q
	caseAfter  int32 = 2 // lower bound above f_w(q): q precedes the whole group
	caseRefine int32 = 3 // bounds straddle f_w(q): members need exact scores
)

// refineGroup resolves a Case-3 group with several members, live of
// them not dominators, by exact refinement, returning the updated
// running rank and ok=false when the cutoff fired. Dominators are
// already counted into rnk, so a group with fewer live members than
// members skips them, re-testing each member against dom's thresholds;
// a group without dominators tests nothing. Out of line so its
// member-list state does not bloat rankBounded's frame: multi-member
// groups either don't occur (continuous data) or amortize the call over
// their whole member list (catalog data).
//
//go:noinline
func (gr *GIR) refineGroup(g, live int, w vec.Vector, fq float64, rnk, cutoff int, dom *dominSet, c *stats.Counters) (int, bool) {
	members := gr.pg.Members(g)
	mixed := live < len(members)
	for _, m := range members {
		p := gr.pm.Row(int(m))
		if mixed && belowAll(p, dom.t) {
			continue
		}
		c.PairwiseMults++
		c.Refinements++
		c.PointsVisited++
		if vec.Dot(w, p) < fq {
			rnk++
			if rnk >= cutoff {
				return cutoff, false
			}
		}
	}
	return rnk, true
}

// girScratch holds the per-query buffer rankBounded reuses across weight
// vectors: the gathered (lower, upper) bound columns, d·packedBoundStride
// floats, tagged by the weight group they were gathered for. The tag
// persists across pooled reuse — the gathered columns depend only on the
// grid and the weight group, both fixed per index.
type girScratch struct {
	bounds []float64
	wgid   int32
}

// loadWeightGroup gathers the grid columns selected by the weight
// group's approximate vector into the flat per-query scratch
// (Equations 3 and 4, column-wise). Each dimension's stride is split
// into halves: bnd[i·s + pc] is the lower and bnd[i·s + packedBoundHalf
// + pc] the upper addend for dimension i, point cell pc — the shape the
// packed kernels address with zero index arithmetic (gir_packed.go).
// Touched entries are d·2n floats, L1-resident for the paper's
// configurations. Weights are visited in cell-sorted order, so
// consecutive rankBounded calls usually hit the tag and skip the gather
// entirely.
func (gr *GIR) loadWeightGroup(scratch *girScratch, wgid int) {
	if scratch.wgid == int32(wgid) {
		return
	}
	bnd := scratch.bounds
	for i, wc := range gr.wg.Row(wgid) {
		row := bnd[i*packedBoundStride : i*packedBoundStride+packedBoundStride]
		copy(row, gr.g.LowerColumn(wc))
		copy(row[packedBoundHalf:], gr.g.UpperColumn(wc))
	}
	scratch.wgid = int32(wgid)
}

func (gr *GIR) newScratch() *girScratch {
	return &girScratch{
		bounds: make([]float64, gr.pa.Dim()*packedBoundStride),
		wgid:   -1,
	}
}

// dominSet is one query's dominators: the products that dominate q by
// the rounding margin (algo.go), each of which scores strictly below q
// under every stored preference. The dominators pre-pass fills it
// before the scan — Algorithm 2 lines 7–8 as the query's first step
// rather than Algorithm 1's lazy Domin buffer — so it is complete (or
// has reached the reverse top-k limit) before any preference is ranked.
// It is written once per query and then read, concurrently by every
// fan-out worker, but never written again: each point group's live
// count is fixed for the query and every preference's rank starts at
// the dominator count. Pooled with the query state; reset undoes
// exactly the previous query's writes, so recycling costs O(dominators).
type dominSet struct {
	groups []int32   // each dominator's point group, in row order
	live   []int32   // per point group: members that are not dominators
	t      []float64 // dominanceBounds of the query, d floats
}

func (gr *GIR) newDominSet() *dominSet {
	nG := gr.pg.Groups()
	live := make([]int32, nG)
	for g := range live {
		live[g] = int32(gr.pg.Size(g))
	}
	return &dominSet{live: live, t: make([]float64, gr.pa.Dim())}
}

// reset empties the set for the next query, restoring the live counts
// the previous one decremented.
func (ds *dominSet) reset() {
	for _, g := range ds.groups {
		ds.live[g]++
	}
	ds.groups = ds.groups[:0]
}

// dominators is the dominator pre-pass, skipped when DisableDomin is
// set: one pass over the row-major products, O(|P|·d) comparisons with
// most rows rejected on their first attribute, that adds every row
// dominating q by the margin to dom (empty on entry) until limit rows
// are found, and returns the number found. It records the count in c
// and a dominators span on tr: rows read, the count, and whether the
// count decided the answer (reached limit).
func (gr *GIR) dominators(q vec.Vector, limit int, dom *dominSet, tr *trace.Trace, c *stats.Counters) int {
	if gr.DisableDomin {
		return 0
	}
	sp := tr.StartSpan("dominators")
	t := dominanceBounds(dom.t, q)
	data, d := gr.pm.Data(), len(t)
	groupOf := gr.pg.GroupMap()
	read := 0
	for ; read < len(groupOf) && len(dom.groups) < limit; read++ {
		if belowAll(data[read*d:read*d+d], t) {
			g := groupOf[read]
			dom.groups = append(dom.groups, g)
			dom.live[g]--
		}
	}
	n := len(dom.groups)
	c.Dominators += int64(n)
	decided := int64(0)
	if n >= limit {
		decided = 1
	}
	sp.SetInt("rows_read", int64(read)).SetInt("dominators", int64(n)).SetInt("decided", decided).End()
	return n
}

// queryState is the pooled per-query working set: dominator set, bound
// scratch, result heap and collection buffer. getState resets the parts
// that must not leak between queries; the scratch's gathered columns stay
// valid across queries and are kept. A fanned-out query's workers use
// their own state's scratch, heap and buffer, and the coordinator's
// dominator set.
type queryState struct {
	dom     *dominSet
	scratch *girScratch
	heap    *topk.KRankHeap
	res     []int
}

// getState pops a recycled query state from the pool (reset-on-get) or
// allocates a fresh one.
func (gr *GIR) getState() *queryState {
	if st, ok := gr.pool.Get().(*queryState); ok {
		st.dom.reset()
		st.res = st.res[:0]
		return st
	}
	return &queryState{
		dom:     gr.newDominSet(),
		scratch: gr.newScratch(),
		heap:    topk.NewKRankHeap(1),
	}
}

func (gr *GIR) putState(st *queryState) { gr.pool.Put(st) }

// QueryOpts bundles the per-query execution knobs of ReverseTopKOpts and
// ReverseKRanksOpts. The zero value runs an untraced query on the
// calling goroutine.
type QueryOpts struct {
	// Workers shards W across that many goroutines; 0 or 1 runs the scan
	// on the calling goroutine, negative means GOMAXPROCS. Answers are
	// identical at every worker count.
	Workers int
	// Trace, when recording, receives scan/merge spans.
	Trace *trace.Trace
}

// ReverseTopK is GIRTop-k (Algorithm 2) on the calling goroutine — the
// RTKAlgorithm form shared with the baselines, whose counter sink is
// optional. The scan counts either way; the query's counts are added
// to sink when one is given. ReverseTopKOpts adds cancellation, workers
// and tracing.
func (gr *GIR) ReverseTopK(q vec.Vector, k int, sink *stats.Counters) []int {
	res, n, _ := gr.ReverseTopKOpts(context.Background(), q, k, QueryOpts{})
	if sink != nil {
		sink.Add(&n)
	}
	return res
}

// ReverseTopKOpts is GIRTop-k (Algorithm 2) under a context with the
// execution knobs gathered in QueryOpts. It returns the answer, the
// query's work counts (Section 3.1's per-case breakdown, with Queries
// = 1) and the context's error, if any.
//
// Cancellation: the scan polls ctx between preference chunks (at most
// cancelChunk weights) on every goroutine, so a cancelled or expired
// context stops the query within one chunk and returns ctx.Err() with no
// workers left behind; a cancelled query returns a nil answer and the
// counts of the work it did.
//
// Dominators first: before any preference is ranked, one pass over the
// products counts those that dominate q by the rounding margin, stopping
// at k. k of them put q at rank k or worse under every preference
// (Algorithm 2 lines 7–8), so the answer is empty and the query returns
// without gathering a bound column or starting a worker. Otherwise the
// complete set starts every preference's rank (DESIGN.md §7, §9).
//
// Tracing: when opts.Trace is recording, the pre-pass, the scan and the
// result merge emit spans — dominators (rows read, the count, whether
// it decided the answer), scan (the per-case breakdown: Case-1 adds,
// Case-2 skips, Case-3 refinements, the filter rate) with one
// scan.worker child per goroutine when fanned out, and merge. A nil
// trace is the common case and adds no work to the query path.
func (gr *GIR) ReverseTopKOpts(ctx context.Context, q vec.Vector, k int, opts QueryOpts) ([]int, stats.Counters, error) {
	c := stats.Counters{Queries: 1}
	if k <= 0 {
		return nil, c, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, c, err
	}
	st := gr.getState()
	defer gr.putState(st)
	if gr.dominators(q, k, st.dom, opts.Trace, &c) >= k {
		return nil, c, nil
	}
	sp := opts.Trace.StartSpan("scan")
	var res []int
	if workers := normalizeWorkers(opts.Workers, gr.wm.Len()); workers > 1 {
		res = gr.reverseTopKFanOut(ctx, q, k, workers, st.dom, sp, &c)
	} else {
		gr.scanTopK(ctx, q, k, st.dom, st, nil, &c)
		res = st.res
	}
	setScanAttrs(sp, &c, k, gr.wm.Len())
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, c, err
	}
	if len(res) == 0 {
		return nil, c, nil
	}
	msp := opts.Trace.StartSpan("merge")
	// The visit order is cell-sorted (and sharded when fanned out); the
	// answer set is order-independent (DESIGN.md §9) and returned
	// ascending.
	sort.Ints(res)
	out := make([]int, len(res))
	copy(out, res)
	msp.SetInt("results", int64(len(out))).End()
	return out, c, nil
}

// ReverseKRanks is GIRk-Rank (Algorithm 3) on the calling goroutine —
// the RKRAlgorithm form shared with the baselines, with ReverseTopK's
// optional sink. ReverseKRanksOpts adds cancellation, workers and
// tracing.
func (gr *GIR) ReverseKRanks(q vec.Vector, k int, sink *stats.Counters) []topk.Match {
	res, n, _ := gr.ReverseKRanksOpts(context.Background(), q, k, QueryOpts{})
	if sink != nil {
		sink.Add(&n)
	}
	return res
}

// admitCutoff is the rank bound for the next weight under the cell-sorted
// visit order: one PAST the heap's admission threshold, because a weight
// whose exact rank ties the worst retained match can still win the
// (rank, index) tie-break — it must be evaluated exactly, not pruned.
// This mirrors the fanned-out watermark's T+1 rule (DESIGN.md §7, §9).
func admitCutoff(h *topk.KRankHeap) int {
	t := h.Threshold()
	if t == maxInt {
		return t
	}
	return t + 1
}

// ReverseKRanksOpts is GIRk-Rank (Algorithm 3) under a context with the
// execution knobs gathered in QueryOpts: the size-k heap's worst
// retained rank is passed to GInTop-k as the filtering cutoff and
// tightens as better weights are found; fanned out, the cutoff also
// honours a shared watermark. Results, counts, cancellation and tracing
// follow ReverseTopKOpts, except that the dominator pre-pass always
// reads every product: its complete set starts every preference's rank
// and never decides the answer. The scan span additionally records the
// final cutoff — the answer's k-th rank + 1, whatever the worker count —
// and, on the calling goroutine, the heap's admission count, which
// together show how quickly the Algorithm 3 bound tightened.
func (gr *GIR) ReverseKRanksOpts(ctx context.Context, q vec.Vector, k int, opts QueryOpts) ([]topk.Match, stats.Counters, error) {
	c := stats.Counters{Queries: 1}
	if k <= 0 {
		return nil, c, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, c, err
	}
	st := gr.getState()
	defer gr.putState(st)
	gr.dominators(q, maxInt, st.dom, opts.Trace, &c)
	sp := opts.Trace.StartSpan("scan")
	var union []topk.Match // the fanned-out workers' local answers
	workers := normalizeWorkers(opts.Workers, gr.wm.Len())
	if workers > 1 {
		union = gr.reverseKRanksFanOut(ctx, q, k, workers, st.dom, sp, &c)
	} else {
		st.heap.Reset(k)
		_, admits := gr.scanKRanks(ctx, q, st.dom, st, nil, &c)
		sp.SetInt("heap_admits", int64(admits))
	}
	if err := ctx.Err(); err != nil {
		setScanAttrs(sp, &c, -1, gr.wm.Len())
		sp.End()
		return nil, c, err
	}
	// The scan span ends here, before the merge as RTK's does, but is
	// recorded after it: its final cutoff is read off the merged answer,
	// the one value every worker count agrees on.
	var scanEnd time.Time
	if sp != nil {
		scanEnd = time.Now()
	}
	msp := opts.Trace.StartSpan("merge")
	var res []topk.Match
	if workers > 1 {
		res = mergeKRanks(union, k)
	} else {
		res = st.heap.Results()
	}
	msp.SetInt("results", int64(len(res))).End()
	cutoff := maxInt // fewer than k preferences: no bound
	if len(res) == k {
		cutoff = res[k-1].Rank + 1
	}
	setScanAttrs(sp, &c, cutoff, gr.wm.Len())
	sp.EndAt(scanEnd)
	return res, c, nil
}

// cutoffAttr maps the sentinel "no bound" cutoff to -1 for span
// attributes.
func cutoffAttr(cut int) int64 {
	if cut >= maxInt {
		return -1
	}
	return int64(cut)
}

// setScanAttrs attaches c, the per-case breakdown of Section 3.1 the
// span's scan (or scan.worker) counted, to sp. cutoff < 0 and
// weights < 0 suppress the respective attribute (workers own neither
// the final cutoff nor the preference count); cutoff = maxInt, no
// bound, is recorded as -1.
func setScanAttrs(sp *trace.Span, c *stats.Counters, cutoff, weights int) {
	if sp == nil {
		return
	}
	if weights >= 0 {
		sp.SetInt("weights", int64(weights))
	}
	if cutoff >= 0 {
		sp.SetInt("cutoff_final", cutoffAttr(cutoff))
	}
	sp.SetInt("case1_filtered", c.Case1Filtered)
	sp.SetInt("case2_filtered", c.Case2Filtered)
	sp.SetInt("case3_refined", c.Refinements)
	sp.SetInt("bound_sums", c.BoundSums)
	sp.SetInt("exact_scores", c.PairwiseMults)
	sp.SetFloat("filter_rate", c.FilterRate())
}
