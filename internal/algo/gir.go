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

	// DisableDomin turns off the Domin buffer (Algorithm 1's dominating-
	// point memoization). Queries stay correct; the flag exists for the
	// ablation experiment that measures what the buffer is worth.
	DisableDomin bool

	g  grid.Bounder
	pa *grid.Index        // P^(A)
	wa *grid.Index        // W^(A)
	pg *grid.GroupedIndex // distinct P^(A) rows with member lists
	wg *grid.GroupedIndex // distinct W^(A) rows; MemberOrder is the scan order

	// pk is pg's packed row store at PackedWidth(g.N()) bits per cell,
	// cached so the hot loop reaches it in one load.
	pk *bits.PackedRows

	// pool recycles per-query state (Domin buffer, bound scratch, result
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
// number of points scoring strictly below f_w(q) (dominators counted
// through dom.count, Case-1 groups in one addition, Case-3 members by
// exact refinement), so the (rank, ok) contract is identical to the
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
// scan order. The rare paths (first-time dominance sweeps, multi-member
// refinement) live in noinline helpers below to keep their state out of
// this frame.
func (gr *GIR) rankBounded(wi int, q vec.Vector, cutoff int, dom *domin, scratch *girScratch, c *stats.Counters) (int, bool) {
	w := gr.wm.Row(wi)
	fq := vec.Dot(w, q)
	if c != nil {
		c.PairwiseMults++
	}
	rnk := dom.count
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
	groupLive := dom.groupLive
	nG := len(groupLive)
	for g := 0; g < nG; {
		// Gather the next RowBlock groups still live in scan order.
		// Fully-dominated groups (every member a known dominator, counted
		// into the initial rnk) are skipped before classification, so the
		// kernel only ever prices rows that need pricing. Liveness only
		// decreases, so a group skipped here stays skipped; a group
		// gathered here is re-checked at consume time below.
		var gs [RowBlock]int32
		cnt := 0
		for ; g < nG && cnt < RowBlock; g++ {
			if groupLive[g] != 0 {
				gs[cnt] = int32(g)
				cnt++
			}
		}
		// cs4 == 0 marks "classify scalar" for a short tail gather: real
		// case codes are 1..3 per byte, so a full block never packs to
		// zero.
		cs4 := uint32(0)
		if cnt == RowBlock {
			cs4 = classify4(words, int(gs[0])*wpr, int(gs[1])*wpr, int(gs[2])*wpr, int(gs[3])*wpr, d, bnd, fq)
			// All four rows Case 2 is the scan's most common no-op block:
			// q precedes every member, nothing counts, nothing refines.
			// Without counters the whole block can be dropped on one
			// compare instead of four unpredictable per-group branches.
			if cs4 == allCaseAfter && c == nil {
				continue
			}
		}
		for t := 0; t < cnt; t, cs4 = t+1, cs4>>8 {
			gi := int(gs[t])
			live := int(groupLive[gi])
			if live == 0 {
				// Killed by a dominator observed since the gather; its
				// members are already counted into rnk.
				continue
			}
			if c != nil {
				c.BoundSums++
				c.ApproxVisited++
			}
			cs := int32(cs4 & 0xff)
			if cs == 0 {
				cs = classifyPackedRow(words[gi*wpr:(gi+1)*wpr], cpw, b, d, bnd, fq)
			}
			if cs == caseBefore { // Case 1: the whole group precedes q
				rnk += live
				if c != nil {
					c.Filtered += int64(live)
					c.Case1Filtered += int64(live)
				}
				// Dominance-test the members once per query (memoized);
				// after the group is fully checked this branch is two
				// loads.
				if !gr.DisableDomin && dom.groupChecked[gi] < dom.groupSizes[gi] {
					gr.observeGroup(gi, dom, q)
				}
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
					// Singleton: live > 0 already proves the lone member is
					// not a known dominator, so the dom.has load is skipped.
					if c != nil {
						c.PairwiseMults++
						c.Refinements++
						c.PointsVisited++
					}
					p := gr.pm.Row(pj)
					if vec.Dot(w, p) < fq {
						rnk++
						if !gr.DisableDomin {
							dom.observe(pj, p, q)
						}
						if rnk >= cutoff {
							return cutoff, false
						}
					}
					continue
				}
				var ok bool
				if rnk, ok = gr.refineGroup(gi, w, q, fq, rnk, cutoff, dom, c); !ok {
					return cutoff, false
				}
			} else if c != nil { // Case 2: q precedes the whole group
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

// observeGroup runs the memoized dominance test over every member of point
// group g. It is called at most once per (group, query) with work to do —
// afterwards the groupChecked counter short-circuits the caller — and is
// kept out of rankBounded's frame (noinline) so its member-list state does
// not bloat the hot loop's register pressure.
//
//go:noinline
func (gr *GIR) observeGroup(g int, dom *domin, q vec.Vector) {
	for _, m := range gr.pg.Members(g) {
		pj := int(m)
		dom.observe(pj, gr.pm.Row(pj), q)
	}
}

// refineGroup resolves a Case-3 group with several members by exact
// refinement, returning the updated running rank and ok=false when the
// cutoff fired. Out of line for the same register-pressure reason as
// observeGroup: multi-member groups either don't occur (continuous data)
// or amortize the call over their whole member list (catalog data).
//
//go:noinline
func (gr *GIR) refineGroup(g int, w, q vec.Vector, fq float64, rnk, cutoff int, dom *domin, c *stats.Counters) (int, bool) {
	for _, m := range gr.pg.Members(g) {
		pj := int(m)
		if dom.has(pj) {
			continue
		}
		if c != nil {
			c.PairwiseMults++
			c.Refinements++
			c.PointsVisited++
		}
		p := gr.pm.Row(pj)
		if vec.Dot(w, p) < fq {
			rnk++
			if !gr.DisableDomin {
				dom.observe(pj, p, q)
			}
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

// newGroupedDomin allocates a Domin buffer wired to the point groups, so
// grouped Case-1 counting can add whole groups of live (non-dominator)
// members in one step.
func (gr *GIR) newGroupedDomin() *domin {
	d := newDomin(gr.pm.Len())
	d.groupOf = gr.pg.GroupMap()
	nG := gr.pg.Groups()
	d.groupSizes = make([]int32, nG)
	for g := 0; g < nG; g++ {
		d.groupSizes[g] = int32(gr.pg.Size(g))
	}
	d.groupLive = make([]int32, nG)
	copy(d.groupLive, d.groupSizes)
	d.groupChecked = make([]int32, nG)
	return d
}

// queryState is the pooled per-query working set: Domin buffer, bound
// scratch, result heap and collection buffer. getState resets the parts
// that must not leak between queries; the scratch's gathered columns stay
// valid across queries and are kept.
type queryState struct {
	dom     *domin
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
		dom:     gr.newGroupedDomin(),
		scratch: gr.newScratch(),
		heap:    topk.NewKRankHeap(1),
	}
}

func (gr *GIR) putState(st *queryState) { gr.pool.Put(st) }

// QueryOpts bundles the per-query execution knobs of ReverseTopKOpts and
// ReverseKRanksOpts. The zero value runs an untraced, uncounted query
// on the calling goroutine.
type QueryOpts struct {
	// Workers shards W across that many goroutines; 0 or 1 runs the scan
	// on the calling goroutine, negative means GOMAXPROCS. Answers are
	// identical at every worker count.
	Workers int
	// Counters, when non-nil, accumulates the per-case scan breakdown.
	Counters *stats.Counters
	// Trace, when recording, receives scan/merge spans.
	Trace *trace.Trace
}

// ReverseTopK is GIRTop-k (Algorithm 2) on the calling goroutine — the
// RTKAlgorithm form shared with the baselines. ReverseTopKOpts adds
// cancellation, workers and tracing.
func (gr *GIR) ReverseTopK(q vec.Vector, k int, c *stats.Counters) []int {
	res, _ := gr.ReverseTopKOpts(context.Background(), q, k, QueryOpts{Counters: c})
	return res
}

// ReverseTopKOpts is GIRTop-k (Algorithm 2) under a context with the
// execution knobs gathered in QueryOpts.
//
// Cancellation: the scan polls ctx between preference chunks (at most
// cancelChunk weights) on every goroutine, so a cancelled or expired
// context stops the query within one chunk and returns ctx.Err() with no
// workers left behind; a cancelled query returns a nil answer.
//
// Tracing: when opts.Trace is recording, the scan and result merge emit
// spans carrying the per-case breakdown of Section 3.1 (Case-1 adds,
// Case-2 skips, Case-3 refinements, the filter rate and the dominator
// count), plus one scan.worker child per goroutine when fanned out. A
// nil trace is the common case and adds no work to the query path.
func (gr *GIR) ReverseTopKOpts(ctx context.Context, q vec.Vector, k int, opts QueryOpts) ([]int, error) {
	c, tr := opts.Counters, opts.Trace
	if tr != nil && c == nil {
		// A traced query needs the per-case counters for its span
		// attributes even when the caller did not ask for stats.
		c = new(stats.Counters)
	}
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := tr.StartSpan("scan")
	base := counterBaseline(sp, c)
	var (
		res        []int
		dominators int
	)
	if workers := normalizeWorkers(opts.Workers, gr.wm.Len()); workers > 1 {
		res, dominators = gr.reverseTopKFanOut(ctx, q, k, workers, sp, c)
	} else {
		st := gr.getState()
		defer gr.putState(st)
		gr.scanTopK(ctx, q, k, st, nil, c)
		res, dominators = st.res, st.dom.count
	}
	endScanSpan(sp, c, base, dominators, k, gr.wm.Len())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Algorithm 2 lines 7–8: k distinct dominators imply every weight
	// ranks q at k or worse, so the answer is empty.
	if dominators >= k || len(res) == 0 {
		return nil, nil
	}
	msp := tr.StartSpan("merge")
	// The visit order is cell-sorted (and sharded when fanned out); the
	// answer set is order-independent (DESIGN.md §9) and returned
	// ascending.
	sort.Ints(res)
	out := make([]int, len(res))
	copy(out, res)
	msp.SetInt("results", int64(len(out))).End()
	return out, nil
}

// ReverseKRanks is GIRk-Rank (Algorithm 3) on the calling goroutine —
// the RKRAlgorithm form shared with the baselines. ReverseKRanksOpts
// adds cancellation, workers and tracing.
func (gr *GIR) ReverseKRanks(q vec.Vector, k int, c *stats.Counters) []topk.Match {
	res, _ := gr.ReverseKRanksOpts(context.Background(), q, k, QueryOpts{Counters: c})
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
// honours a shared watermark. Cancellation and tracing follow
// ReverseTopKOpts; the scan span additionally records the final cutoff
// — the answer's k-th rank + 1, whatever the worker count — and, on the
// calling goroutine, the heap's admission count, which together show
// how quickly the Algorithm 3 bound tightened.
func (gr *GIR) ReverseKRanksOpts(ctx context.Context, q vec.Vector, k int, opts QueryOpts) ([]topk.Match, error) {
	c, tr := opts.Counters, opts.Trace
	if tr != nil && c == nil {
		c = new(stats.Counters)
	}
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := tr.StartSpan("scan")
	base := counterBaseline(sp, c)
	var (
		st    *queryState  // the inline scan's state
		union []topk.Match // the fanned-out workers' local answers
	)
	if workers := normalizeWorkers(opts.Workers, gr.wm.Len()); workers > 1 {
		union = gr.reverseKRanksFanOut(ctx, q, k, workers, sp, c)
	} else {
		st = gr.getState()
		defer gr.putState(st)
		st.heap.Reset(k)
		_, admits := gr.scanKRanks(ctx, q, st, nil, c)
		sp.SetInt("heap_admits", int64(admits))
	}
	if err := ctx.Err(); err != nil {
		endScanSpan(sp, c, base, -1, -1, gr.wm.Len())
		return nil, err
	}
	// The scan span ends here, before the merge as RTK's does, but is
	// recorded after it: its final cutoff is read off the merged answer,
	// the one value every worker count agrees on.
	var scanEnd time.Time
	if sp != nil {
		scanEnd = time.Now()
	}
	msp := tr.StartSpan("merge")
	var res []topk.Match
	if st != nil {
		res = st.heap.Results()
	} else {
		res = mergeKRanks(union, k)
	}
	msp.SetInt("results", int64(len(res))).End()
	cutoff := maxInt // fewer than k preferences: no bound
	if len(res) == k {
		cutoff = res[k-1].Rank + 1
	}
	setScanAttrs(sp, c, base, -1, cutoff, gr.wm.Len())
	sp.EndAt(scanEnd)
	return res, nil
}

// counterBaseline snapshots c when the scan span is live, so the span's
// attributes report this query's deltas even when the caller accumulates
// counters across queries. The copy is skipped entirely on untraced
// queries.
func counterBaseline(sp *trace.Span, c *stats.Counters) stats.Counters {
	if sp == nil || c == nil {
		return stats.Counters{}
	}
	return *c
}

// cutoffAttr maps the sentinel "no bound" cutoff to -1 for span
// attributes.
func cutoffAttr(cut int) int64 {
	if cut >= maxInt {
		return -1
	}
	return int64(cut)
}

// endScanSpan closes a scan (or scan.worker) span with the attributes of
// setScanAttrs.
func endScanSpan(sp *trace.Span, c *stats.Counters, base stats.Counters, dominators, cutoff, weights int) {
	setScanAttrs(sp, c, base, dominators, cutoff, weights)
	sp.End()
}

// setScanAttrs attaches the per-case breakdown of Section 3.1
// accumulated since base. dominators < 0 and cutoff < 0 suppress the
// respective attribute (workers own neither the dominator count nor the
// final cutoff); cutoff = maxInt, no bound, is recorded as -1.
func setScanAttrs(sp *trace.Span, c *stats.Counters, base stats.Counters, dominators, cutoff, weights int) {
	if sp == nil {
		return
	}
	if weights >= 0 {
		sp.SetInt("weights", int64(weights))
	}
	if dominators >= 0 {
		sp.SetInt("dominators", int64(dominators))
	}
	if cutoff >= 0 {
		sp.SetInt("cutoff_final", cutoffAttr(cutoff))
	}
	if c != nil {
		d := stats.Counters{
			Case1Filtered: c.Case1Filtered - base.Case1Filtered,
			Case2Filtered: c.Case2Filtered - base.Case2Filtered,
			Filtered:      c.Filtered - base.Filtered,
			Refinements:   c.Refinements - base.Refinements,
			BoundSums:     c.BoundSums - base.BoundSums,
			PairwiseMults: c.PairwiseMults - base.PairwiseMults,
		}
		sp.SetInt("case1_filtered", d.Case1Filtered)
		sp.SetInt("case2_filtered", d.Case2Filtered)
		sp.SetInt("case3_refined", d.Refinements)
		sp.SetInt("bound_sums", d.BoundSums)
		sp.SetInt("exact_scores", d.PairwiseMults)
		sp.SetFloat("filter_rate", d.FilterRate())
	}
}
