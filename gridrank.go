// Package gridrank answers reverse rank queries — "which users would rank
// this product highly?" — with the Grid-index (GIR) algorithm of Dong,
// Chen, Furuse, Yu and Kitagawa, "Grid-Index Algorithm for Reverse Rank
// Queries", EDBT 2017.
//
// Given a set of products P (d-dimensional points, smaller attribute
// values preferable) and a set of user preferences W (non-negative weight
// vectors summing to 1), the score of product p for user w is the inner
// product f_w(p) = Σ w[i]·p[i] and rank(w, q) counts the products scoring
// strictly below q. Two queries are supported:
//
//   - Reverse top-k (RTK): all users who place the query product in their
//     personal top-k.
//   - Reverse k-ranks (RKR): the k users who rank the query product best,
//     which is never empty — useful for unpopular products.
//
// The Grid-index pre-computes an (n+1)×(n+1) table of partition-boundary
// products and a compact approximate vector per product and user; at query
// time most products are decided against most users using only table
// lookups and additions, making the scan robust to high dimensionality
// where tree-based indexes degenerate.
//
// # Quick start
//
//	ix, err := gridrank.New(products, preferences, nil)
//	if err != nil { ... }
//	users, err := ix.ReverseTopKCtx(ctx, myProduct, 10)   // RTK
//	best, err := ix.ReverseKRanksCtx(ctx, myProduct, 5)   // RKR
//
// The context cancels or time-bounds a running query; per-call options
// (WithWorkers, WithStats) tune a single query without further methods.
//
// The internal packages additionally provide the paper's baselines (simple
// scan, BBR, MPA, RTA) and the full benchmark harness; see cmd/experiments
// and DESIGN.md.
package gridrank

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gridrank/internal/algo"
	"gridrank/internal/cache"
	"gridrank/internal/flight"
	"gridrank/internal/model"
	"gridrank/internal/stats"
	"gridrank/internal/sub"
	"gridrank/internal/topk"
	"gridrank/internal/trace"
	"gridrank/internal/vec"
)

// Vector is a d-dimensional product point or preference vector.
type Vector = []float64

// Match is one reverse k-ranks result: a preference index and the number
// of products ranked strictly above the query for that preference (the
// query's 1-based rank is Rank+1).
type Match struct {
	WeightIndex int
	Rank        int
}

// Result is one top-k result: a product index and its score.
type Result struct {
	Index int
	Score float64
}

// Stats reports the work a query performed.
type Stats struct {
	// PairwiseMults is the number of exact inner products computed.
	PairwiseMults int64
	// BoundSums is the number of Grid-index bound evaluations (additions
	// and lookups only).
	BoundSums int64
	// Filtered is the number of points decided by bounds alone. It is
	// always Case1Filtered + Case2Filtered.
	Filtered int64
	// Case1Filtered is the number of filtered points that counted against
	// the query (upper bound below the query score, Section 3.1 Case 1).
	Case1Filtered int64
	// Case2Filtered is the number of filtered points discarded outright
	// (lower bound above the query score, Case 2).
	Case2Filtered int64
	// Refined is the number of points needing an exact score.
	Refined int64
}

// FilterRate is Filtered / (Filtered + Refined), the fraction of examined
// points the Grid-index decided without a multiplication.
func (s Stats) FilterRate() float64 {
	if s.Filtered+s.Refined == 0 {
		return 0
	}
	return float64(s.Filtered) / float64(s.Filtered+s.Refined)
}

func fromCounters(c *stats.Counters) Stats {
	return Stats{
		PairwiseMults: c.PairwiseMults,
		BoundSums:     c.BoundSums,
		Filtered:      c.Filtered,
		Case1Filtered: c.Case1Filtered,
		Case2Filtered: c.Case2Filtered,
		Refined:       c.Refinements,
	}
}

// Options configures index construction. The zero value (or nil) uses the
// paper's defaults.
type Options struct {
	// GridPartitions is the per-axis partition count n of the Grid-index.
	// Default 32, the paper's setting, sufficient for >99% worst-case
	// model filtering up to d ≈ 20.
	GridPartitions int

	// TargetFiltering, when in (0, 1), sizes the grid automatically with
	// Theorem 1 so the model's worst-case filtering performance exceeds
	// it, overriding GridPartitions. For example 0.99 requests ε = 1%.
	TargetFiltering float64

	// Parallelism is the default number of worker goroutines a single
	// query shards the preference set across. 0 and 1 scan on the
	// calling goroutine (the default: the batch methods already
	// parallelize across queries, and intra-query workers nested under
	// them would oversubscribe the CPUs); values above 1 enable the
	// intra-query worker pool for every query on this index. Answers are
	// bit-identical at every setting — only the work distribution
	// changes. WithWorkers overrides it for a single call, and
	// SetParallelism retunes it while serving.
	Parallelism int

	// CacheSize, when positive, attaches an answer cache holding up to
	// that many query results (see EnableCache). Cached answers are
	// invalidated epoch-exactly by mutations, so the cache never changes
	// any answer. 0 leaves the cache off.
	CacheSize int

	// CacheTTL bounds the lifetime of cached answers when CacheSize is
	// set; 0 means entries live until invalidated or evicted.
	CacheTTL time.Duration

	// FlightCapacity sizes the always-on flight recorder's ring (rounded
	// up to a power of two). 0 selects the default
	// (flight.DefaultCapacity); a negative value disables the recorder
	// entirely — intended for measurements, since recording costs zero
	// allocations and a few atomic operations per query (see DESIGN.md
	// §16).
	FlightCapacity int
}

// Layout reports the physical representation of an index's scan
// structures, as returned by Index.Layout. Approximate product rows are
// always stored bit-packed, at the smallest width in [4, 8] bits per
// cell that encodes the grid's partition count (see DESIGN.md §13).
type Layout struct {
	// Packed is true: approximate product rows are stored bit-packed.
	Packed bool
	// BitsPerDim is the packed cell width the grid size derives: 4 for
	// up to 16 partitions, 5 for 32, up to 8 for 256.
	BitsPerDim int
	// RowBlock is the number of rows the scan kernel classifies per
	// call.
	RowBlock int
}

// ErrDimensionMismatch reports a query vector whose dimensionality does
// not match the index.
var ErrDimensionMismatch = errors.New("gridrank: dimension mismatch")

// ErrBadK reports a non-positive k.
var ErrBadK = errors.New("gridrank: k must be positive")

// ErrBadParallelism reports a negative worker count.
var ErrBadParallelism = errors.New("gridrank: parallelism must be non-negative")

// Index holds the Grid-index over one product set and one preference
// set. It is safe for concurrent use: queries read an immutable epoch
// snapshot resolved once per call (no locks on the query path), and the
// mutation methods (InsertProduct, DeleteProduct, InsertPreference,
// DeletePreference and their Ctx/batch variants — see mutate.go)
// install new epochs behind a writer lock without disturbing in-flight
// queries.
type Index struct {
	dim int
	// par is the default intra-query worker count (Options.Parallelism /
	// SetParallelism); atomic so it can be retuned while serving.
	par atomic.Int32
	// mu serializes mutators; queries never take it.
	mu sync.Mutex
	// cur is the current epoch. Mutators build the next epoch under mu
	// and publish it with one atomic store; queries load it once and run
	// entirely against that snapshot.
	cur atomic.Pointer[epoch]
	// answers is the optional answer cache (nil = off); see
	// answercache.go for the enablement and invalidation wiring.
	answers atomic.Pointer[cache.Cache]
	// subs is the subscription registry, created on first Subscribe
	// (nil until then); see subscriptions.go for the publish hooks.
	subs atomic.Pointer[sub.Registry]
	// subTracer, when set, records diff-pass traces; guarded by mu
	// (the hooks and SetSubscriptionTracer both hold it).
	subTracer *trace.Tracer
	// fr is the always-on flight recorder: a bounded ring of fixed-size
	// digests, one per query / mutation / subscription event, recorded
	// unconditionally (see internal/flight and flightrecorder.go). nil
	// only when Options.FlightCapacity is negative — every recording
	// site is nil-safe. Immutable after construction.
	fr *flight.Recorder
	// format is the on-disk format version the index came from, "" for a
	// fresh build (see Format). Immutable after construction.
	format string
	// mapped holds the memory mappings backing this index's epochs
	// (LoadMmap, Checkpoint); guarded by mu, released by Close.
	mapped [][]byte
}

// epoch is one immutable snapshot of the indexed data and its derived
// structures. Everything reachable from an epoch is read-only after
// publication; successive epochs share whatever a mutation left
// untouched (the grid table, the whole non-mutated side, and — via
// copy-on-write matrices — most of the raw data).
type epoch struct {
	// seq numbers epochs from 0 (construction), incremented per install.
	seq    uint64
	pm, wm *vec.Matrix
	rangeP float64
	gir    *algo.GIR
}

// snap returns the current epoch snapshot.
func (ix *Index) snap() *epoch { return ix.cur.Load() }

// computeRangeP reproduces New's point-range derivation exactly — max
// attribute, floored at 1 for all-zero sets, nudged one ulp up — so an
// index maintained by mutations persists byte-identically to one built
// fresh over the same data.
func computeRangeP(products []Vector) float64 {
	rangeP := 0.0
	for _, p := range products {
		for _, x := range p {
			if x > rangeP {
				rangeP = x
			}
		}
	}
	if rangeP == 0 {
		rangeP = 1
	}
	return math.Nextafter(rangeP, math.Inf(1))
}

// New validates the data sets and builds the Grid-index. Products must
// have non-negative attributes of a consistent dimensionality; preferences
// must be non-negative weight vectors of the same dimensionality summing
// to 1 (within 1e-6).
func New(products, preferences []Vector, opts *Options) (*Index, error) {
	if len(products) == 0 {
		return nil, errors.New("gridrank: empty product set")
	}
	if len(preferences) == 0 {
		return nil, errors.New("gridrank: empty preference set")
	}
	d := len(products[0])
	if d == 0 {
		return nil, errors.New("gridrank: zero-dimensional products")
	}
	rangeP := 0.0
	for i, p := range products {
		if len(p) != d {
			return nil, fmt.Errorf("%w: product %d has %d dimensions, want %d",
				ErrDimensionMismatch, i, len(p), d)
		}
		for j, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return nil, fmt.Errorf("gridrank: product %d attribute %d = %v (must be finite and non-negative)", i, j, x)
			}
			if x > rangeP {
				rangeP = x
			}
		}
	}
	if rangeP == 0 {
		rangeP = 1 // all-zero products still index cleanly
	}
	for i, w := range preferences {
		if len(w) != d {
			return nil, fmt.Errorf("%w: preference %d has %d dimensions, want %d",
				ErrDimensionMismatch, i, len(w), d)
		}
		sum := 0.0
		for j, x := range w {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return nil, fmt.Errorf("gridrank: preference %d weight %d = %v (must be finite and non-negative)", i, j, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-6 {
			return nil, fmt.Errorf("gridrank: preference %d weights sum to %v, want 1", i, sum)
		}
	}

	n := algo.DefaultPartitions
	parallelism := 0
	if opts != nil {
		if opts.GridPartitions < 0 {
			return nil, fmt.Errorf("gridrank: negative GridPartitions %d", opts.GridPartitions)
		}
		if opts.Parallelism < 0 {
			return nil, fmt.Errorf("gridrank: negative Parallelism %d", opts.Parallelism)
		}
		if opts.CacheSize < 0 {
			return nil, fmt.Errorf("gridrank: negative CacheSize %d", opts.CacheSize)
		}
		if opts.CacheTTL < 0 {
			return nil, fmt.Errorf("gridrank: negative CacheTTL %v", opts.CacheTTL)
		}
		if opts.CacheTTL > 0 && opts.CacheSize == 0 {
			return nil, fmt.Errorf("gridrank: CacheTTL requires CacheSize > 0")
		}
		parallelism = opts.Parallelism
		if opts.GridPartitions > 0 {
			n = opts.GridPartitions
		}
		if opts.TargetFiltering != 0 {
			if opts.TargetFiltering <= 0 || opts.TargetFiltering >= 1 {
				return nil, fmt.Errorf("gridrank: TargetFiltering %v outside (0, 1)", opts.TargetFiltering)
			}
			auto, err := model.RequiredPartitionsPow2(d, 1-opts.TargetFiltering)
			if err != nil {
				return nil, fmt.Errorf("gridrank: sizing grid: %w", err)
			}
			n = auto
		}
	}
	// rangeP is the max observed value; nudge it up so the top value maps
	// strictly inside the last cell even after floating-point rounding
	// (computeRangeP applies the same rule for the mutation paths).
	rangeP = math.Nextafter(rangeP, math.Inf(1))
	// Copy both sets into contiguous row-major storage: the index and the
	// algorithm share one backing array per set, the scans stream
	// sequential memory, and callers keep ownership of their slices.
	pm := vec.NewMatrix(products)
	wm := vec.NewMatrix(preferences)
	ix := &Index{dim: d}
	flightCap := 0
	if opts != nil {
		flightCap = opts.FlightCapacity
	}
	if flightCap >= 0 {
		ix.fr = flight.New(flightCap)
	}
	ix.par.Store(int32(parallelism))
	ix.cur.Store(&epoch{
		pm:     pm,
		wm:     wm,
		rangeP: rangeP,
		gir:    algo.NewGIRFromMatrices(pm, wm, rangeP, n),
	})
	if opts != nil && opts.CacheSize > 0 {
		if err := ix.EnableCache(opts.CacheSize, opts.CacheTTL); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Dim returns the indexed dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// NumProducts returns |P| of the current epoch.
func (ix *Index) NumProducts() int { return ix.snap().pm.Len() }

// NumPreferences returns |W| of the current epoch.
func (ix *Index) NumPreferences() int { return ix.snap().wm.Len() }

// GridPartitions returns the grid resolution n chosen at construction.
func (ix *Index) GridPartitions() int { return ix.snap().gir.Grid().N() }

// Epoch returns the index's mutation epoch: 0 for a freshly built or
// loaded index, incremented by one for every installed mutation (a
// batch call counts as one). Two calls observing the same epoch saw the
// identical immutable snapshot.
func (ix *Index) Epoch() uint64 { return ix.snap().seq }

// Parallelism returns the default intra-query worker count configured
// through Options.Parallelism or SetParallelism (0 means sequential).
func (ix *Index) Parallelism() int { return int(ix.par.Load()) }

// SetParallelism changes the default intra-query worker count, e.g. for
// an index restored with Load (the setting is runtime configuration and
// is not persisted). It is safe to call while queries are in flight;
// running queries keep the count they resolved at entry.
func (ix *Index) SetParallelism(workers int) error {
	if workers < 0 {
		return fmt.Errorf("%w: got %d", ErrBadParallelism, workers)
	}
	ix.par.Store(int32(workers))
	return nil
}

// Layout reports the physical representation of the current epoch's
// scan structures: the packed row width its grid size derives and how
// many rows the scan kernel classifies per call.
func (ix *Index) Layout() Layout {
	return Layout{Packed: true, BitsPerDim: ix.snap().gir.PackedBits(), RowBlock: algo.RowBlock}
}

// GridMemoryBytes returns the memory footprint of the boundary table.
func (ix *Index) GridMemoryBytes() int { return ix.snap().gir.Grid().MemoryBytes() }

// PointGroups returns the number of distinct approximate product rows —
// grid cells actually occupied by P. The scan's bound work is
// proportional to this, not to NumProducts(): the further it falls
// below NumProducts(), the more the cell-grouped scan saves (DESIGN.md
// §9). Equal values mean grouping is inert for this data and grid.
func (ix *Index) PointGroups() int { return ix.snap().gir.PointGroups() }

// WeightGroups is PointGroups for the preference set: the number of
// distinct approximate preference rows. Preferences sharing a row reuse
// the gathered bound columns during a scan.
func (ix *Index) WeightGroups() int { return ix.snap().gir.WeightGroups() }

func (ix *Index) checkQuery(q Vector, k int) error {
	if len(q) != ix.dim {
		return fmt.Errorf("%w: query has %d dimensions, want %d", ErrDimensionMismatch, len(q), ix.dim)
	}
	for j, x := range q {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("gridrank: query attribute %d = %v (must be finite and non-negative)", j, x)
		}
	}
	if k <= 0 {
		return fmt.Errorf("%w: got %d", ErrBadK, k)
	}
	return nil
}

// checkPreference validates an ad-hoc preference vector (TopK, Rank):
// the dimensionality must match and every weight must be finite and
// non-negative. NaN or ±Inf weights would silently poison every score
// comparison, so they are rejected up front.
func (ix *Index) checkPreference(w Vector) error {
	if len(w) != ix.dim {
		return fmt.Errorf("%w: preference has %d dimensions, want %d", ErrDimensionMismatch, len(w), ix.dim)
	}
	for j, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("gridrank: preference weight %d = %v (must be finite and non-negative)", j, x)
		}
	}
	return nil
}

// AggMatch is one aggregate reverse rank result: a preference index and
// the bundle's total rank under it (smaller is better).
type AggMatch struct {
	WeightIndex int
	AggRank     int
}

// AggregateReverseRank returns the k preferences that rank a whole bundle
// of query products best, by the sum of per-product ranks — the aggregate
// reverse rank query of Dong et al. (DEXA 2016), the bundling extension of
// reverse k-ranks. Ties resolve toward smaller preference indexes.
func (ix *Index) AggregateReverseRank(bundle []Vector, k int) ([]AggMatch, error) {
	if len(bundle) == 0 {
		return nil, errors.New("gridrank: empty bundle")
	}
	for _, q := range bundle {
		if err := ix.checkQuery(q, k); err != nil {
			return nil, err
		}
	}
	res := ix.snap().gir.AggregateReverseRank(bundle, k, nil)
	out := make([]AggMatch, len(res))
	for i, m := range res {
		out[i] = AggMatch{WeightIndex: m.WeightIndex, AggRank: m.AggRank}
	}
	return out, nil
}

// TopK returns the k best-scoring (lowest) products for a preference
// vector, the forward query of Definition 1.
func (ix *Index) TopK(w Vector, k int) ([]Result, error) {
	if err := ix.checkPreference(w); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadK, k)
	}
	res := topk.TopK(ix.snap().pm.Rows(), w, k, nil)
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{Index: r.Index, Score: r.Score}
	}
	return out, nil
}

// Rank returns rank(w, q): how many products score strictly below q under
// w. The product's 1-based position in w's ranking is Rank+1.
func (ix *Index) Rank(w, q Vector) (int, error) {
	if err := ix.checkPreference(w); err != nil {
		return 0, err
	}
	if len(q) != ix.dim {
		return 0, fmt.Errorf("%w: query has %d dimensions, want %d", ErrDimensionMismatch, len(q), ix.dim)
	}
	for j, x := range q {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return 0, fmt.Errorf("gridrank: query attribute %d = %v (must be finite and non-negative)", j, x)
		}
	}
	return topk.Rank(ix.snap().pm.Rows(), w, q, nil), nil
}

// WeightInterval is a closed range [Lo, Hi] of λ values: every preference
// (λ, 1−λ) inside it places the query product in its top-k.
type WeightInterval struct {
	Lo, Hi float64
}

// MonoReverseTopK answers the monochromatic reverse top-k query over a
// 2-dimensional product set: instead of matching against a finite
// preference set, it returns the regions of the whole weight space
// {(λ, 1−λ) : λ ∈ [0, 1]} in which q ranks within the top-k. This is the
// other reverse top-k variant of Vlachou et al. (the paper evaluates the
// bichromatic one); it is only defined for d = 2.
func MonoReverseTopK(products []Vector, q Vector, k int) ([]WeightInterval, error) {
	ivs, err := algo.MonoRTK(products, q, k)
	if err != nil {
		return nil, err
	}
	out := make([]WeightInterval, len(ivs))
	for i, iv := range ivs {
		out[i] = WeightInterval{Lo: iv.Lo, Hi: iv.Hi}
	}
	return out, nil
}

// RequiredPartitions returns Theorem 1's minimum grid resolution for a
// d-dimensional data set so the model's worst-case filtering performance
// exceeds target (for example 0.99), rounded up to a power of two so
// approximate vectors bit-pack exactly.
func RequiredPartitions(d int, target float64) (int, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("gridrank: target %v outside (0, 1)", target)
	}
	return model.RequiredPartitionsPow2(d, 1-target)
}
