package gridrank

// The context-first query API. ReverseTopKCtx and ReverseKRanksCtx are
// the two entrypoints every other query method of Index reduces to: they
// take a context for cancellation and deadlines, and functional options
// for the per-call knobs that previously each demanded a dedicated
// method (explicit worker counts, work statistics). The request
// lifecycle is
//
//	ctx (cancellation, deadline)
//	  → option resolution (workers, stats sink)
//	    → validation (dimensions, finiteness, k)
//	      → GIR scan, polling ctx once per preference chunk
//
// Every scan counts its work (the Section 3.1 case breakdown) whether or
// not the caller asked for it: the counts feed the query's flight-
// recorder digest and its trace spans, and WithStats copies them out.
// A query whose context is cancelled or expires stops within one
// preference chunk on every goroutine and returns ctx.Err(); the stats
// sink of WithStats is still filled with the work performed up to that
// point, so an observability layer can account for abandoned work.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gridrank/internal/algo"
	"gridrank/internal/answers"
	"gridrank/internal/flight"
	"gridrank/internal/stats"
	"gridrank/internal/trace"
)

// QueryOption configures one call of the context-first query API
// (ReverseTopKCtx, ReverseKRanksCtx). Options are applied in order
// before validation; a nil option is rejected.
type QueryOption func(*queryConfig) error

// queryConfig is the resolved per-call configuration.
type queryConfig struct {
	// workers is the intra-query worker count: -1 selects the index
	// default (Options.Parallelism / SetParallelism), 0 means GOMAXPROCS,
	// 1 forces the sequential scan, larger values shard W across that
	// many goroutines.
	workers int
	// stats, when non-nil, receives a copy of the query's work counts.
	stats *Stats
	// tr, when non-nil, receives the query's execution spans.
	tr *trace.Trace
	// noCache bypasses the answer cache for this call (WithoutCache).
	noCache bool
	// servedEpoch, when non-nil, receives the epoch the answer is valid
	// against (WithServedEpoch).
	servedEpoch *uint64
}

// WithWorkers sets the intra-query worker count for a single call,
// overriding the index default: 1 forces the sequential scan, values
// above 1 shard the preference set across that many goroutines, and 0
// means GOMAXPROCS. The answer is bit-identical for every worker count;
// negative counts are rejected with ErrBadParallelism.
func WithWorkers(n int) QueryOption {
	return func(cfg *queryConfig) error {
		if n < 0 {
			return fmt.Errorf("%w: got %d", ErrBadParallelism, n)
		}
		cfg.workers = n
		return nil
	}
}

// WithStats copies the query's work statistics into s. Every query
// counts its work anyway (the flight recorder keeps the case breakdown
// of each), so the option only adds a sink; it does not switch counting
// on. The sink is written exactly once, when the query returns —
// including on cancellation, where it holds the work performed before
// the context fired, and on an answer-cache hit, where it is zero.
func WithStats(s *Stats) QueryOption {
	return func(cfg *queryConfig) error {
		if s == nil {
			return fmt.Errorf("gridrank: WithStats requires a non-nil sink")
		}
		cfg.stats = s
		return nil
	}
}

// WithTrace attaches the query to tr, an in-flight per-query trace from
// internal/trace: the snapshot load, the grid scan (with its Case-1/2/3
// breakdown), any parallel workers and the result merge each record a
// span. The HTTP server and the CLI's -explain mode construct traces;
// the trace is safe for use across the concurrent queries of a batch. A
// nil tr is allowed and means "not traced" — the query path then does no
// tracing work at all, so callers can pass their maybe-nil trace
// unconditionally.
func WithTrace(tr *trace.Trace) QueryOption {
	return func(cfg *queryConfig) error {
		cfg.tr = tr
		return nil
	}
}

// WithoutCache bypasses the answer cache for a single call: the query
// always runs the scan against the current snapshot, and its answer is
// not stored. Useful for measurements and for the cache's own
// correctness harness; answers are identical either way.
func WithoutCache() QueryOption {
	return func(cfg *queryConfig) error {
		cfg.noCache = true
		return nil
	}
}

// WithServedEpoch directs the epoch the answer is valid against into e,
// written exactly once when the query returns: the snapshot epoch when
// the scan ran, or the cached entry's epoch on an answer-cache hit (a
// cached answer may carry an older epoch than the current one — every
// install keeps it exact; see DESIGN.md §12).
func WithServedEpoch(e *uint64) QueryOption {
	return func(cfg *queryConfig) error {
		if e == nil {
			return fmt.Errorf("gridrank: WithServedEpoch requires a non-nil sink")
		}
		cfg.servedEpoch = e
		return nil
	}
}

// resolveOptions folds opts over the default configuration.
func resolveOptions(opts []QueryOption) (queryConfig, error) {
	cfg := queryConfig{workers: -1}
	for _, o := range opts {
		if o == nil {
			return cfg, fmt.Errorf("gridrank: nil QueryOption")
		}
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// resolveWorkers maps the option value to the explicit count the algo
// layer expects (always >= 1; 1 scans on the calling goroutine).
func (cfg *queryConfig) resolveWorkers(ix *Index) int {
	switch {
	case cfg.workers < 0: // index default
		if p := int(ix.par.Load()); p > 1 {
			return p
		}
		return 1
	case cfg.workers == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return cfg.workers
	}
}

// served publishes the answer's epoch into the caller's sink.
func (cfg *queryConfig) served(seq uint64) {
	if cfg.servedEpoch != nil {
		*cfg.servedEpoch = seq
	}
}

// ReverseTopKCtx returns, in ascending order, the indexes of every
// preference vector that places q within its top-k products. An empty
// answer means no user ranks q that highly (consider ReverseKRanksCtx).
//
// The context governs the whole query: when ctx is cancelled or its
// deadline passes, the scan stops within one preference chunk on every
// goroutine and the call returns ctx.Err(). Options tune the call:
// WithWorkers overrides the index's intra-query parallelism and
// WithStats copies out the work statistics the scan counts.
//
// Every call — success, validation error or cancellation — leaves one
// digest in the always-on flight recorder (see FlightRecords), with the
// scan's Case-1/2/3 breakdown when a scan ran.
func (ix *Index) ReverseTopKCtx(ctx context.Context, q Vector, k int, opts ...QueryOption) ([]int, error) {
	return runQuery(ix, &topKQuery, ctx, q, k, opts)
}

// ReverseKRanksCtx returns the k preference vectors ranking q best,
// ordered by ascending rank (ties toward smaller indexes). It never
// returns an empty answer for k >= 1 — if fewer than k preferences
// exist, all are returned.
//
// The context and options follow the same contract as ReverseTopKCtx,
// including the flight-recorder digest per call.
func (ix *Index) ReverseKRanksCtx(ctx context.Context, q Vector, k int, opts ...QueryOption) ([]Match, error) {
	return runQuery(ix, &kRanksQuery, ctx, q, k, opts)
}

// queryKind is everything that tells the two query kinds apart inside
// runQuery: the flight-recorder op, the algo entrypoint, and the
// registry's answer kind with the conversions between T, the kind's
// public answer type, and the registry's answer form.
type queryKind[T any] struct {
	op         flight.Op
	kind       answers.Kind
	scan       func(gr *algo.GIR, ctx context.Context, q Vector, k int, o algo.QueryOpts) (T, stats.Counters, error)
	toAnswer   func(T) []answers.Member
	fromAnswer func([]answers.Member) T
}

var topKQuery = queryKind[[]int]{
	op:       flight.OpReverseTopK,
	kind:     answers.KindTopK,
	scan:     (*algo.GIR).ReverseTopKOpts,
	toAnswer: topKMembers,
	fromAnswer: func(ms []answers.Member) []int {
		if len(ms) == 0 {
			return nil // the scan's empty answer
		}
		out := make([]int, len(ms))
		for i, m := range ms {
			out[i] = m.Pref
		}
		return out
	},
}

var kRanksQuery = queryKind[[]Match]{
	op:   flight.OpReverseKRanks,
	kind: answers.KindKRanks,
	scan: func(gr *algo.GIR, ctx context.Context, q Vector, k int, o algo.QueryOpts) ([]Match, stats.Counters, error) {
		ms, n, err := gr.ReverseKRanksOpts(ctx, q, k, o)
		return convertMatches[Match](ms), n, err
	},
	toAnswer: kRanksMembers[Match],
	fromAnswer: func(ms []answers.Member) []Match {
		out := make([]Match, len(ms))
		for i, m := range ms {
			out[i] = Match{WeightIndex: m.Pref, Rank: m.Rank}
		}
		return out
	},
}

// topKMembers is a reverse top-k answer in the registry's form.
func topKMembers(ids []int) []answers.Member {
	out := make([]answers.Member, len(ids))
	for i, id := range ids {
		out[i].Pref = id
	}
	return out
}

// kRanksMembers is a reverse k-ranks answer in the registry's form.
func kRanksMembers[S ~struct{ WeightIndex, Rank int }](ms []S) []answers.Member {
	out := make([]answers.Member, len(ms))
	for i, m := range ms {
		x := struct{ WeightIndex, Rank int }(m)
		out[i] = answers.Member{Pref: x.WeightIndex, Rank: x.Rank}
	}
	return out
}

// convertMatches copies a k-ranks answer between the layers' identical
// (WeightIndex, Rank) match types; nil stays nil.
func convertMatches[D, S ~struct{ WeightIndex, Rank int }](ms []S) []D {
	if ms == nil {
		return nil
	}
	out := make([]D, len(ms))
	for i, m := range ms {
		out[i] = D(m)
	}
	return out
}

// runQuery is the one query body behind ReverseTopKCtx and
// ReverseKRanksCtx: option resolution, validation, the answer cache,
// one snapshot load, the scan and the flight-recorder digest.
func runQuery[T any](ix *Index, kind *queryKind[T], ctx context.Context, q Vector, k int, opts []QueryOption) (T, error) {
	start := time.Now()
	res, dig, err := kind.run(ix, ctx, q, k, opts)
	ix.recordQuery(kind.op, k, start, dig, err)
	return res, err
}

func (kind *queryKind[T]) run(ix *Index, ctx context.Context, q Vector, k int, opts []QueryOption) (res T, dig queryDigest, err error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return res, dig, err
	}
	if err := ix.checkQuery(q, k); err != nil {
		return res, dig, err
	}
	dig.traceHi, dig.traceLo = cfg.tr.IDPair()
	dig.sampled = cfg.tr.Sampled()
	ac := ix.answers.Load()
	cached := ac != nil && ac.CacheEnabled() && !cfg.noCache
	if cached {
		// Honour cancellation before serving from the cache, so a dead
		// context never "succeeds" just because the answer was resident.
		if err := ctx.Err(); err != nil {
			return res, dig, err
		}
		lsp := cfg.tr.StartSpan("cache.lookup")
		if ans, seq, ok := ac.Lookup(kind.kind, k, q); ok {
			lsp.SetInt("hit", 1).SetInt("epoch", int64(seq)).End()
			if cfg.stats != nil {
				*cfg.stats = Stats{} // a hit performs no scan work
			}
			cfg.served(seq)
			dig.epoch, dig.cacheHit = seq, true
			return kind.fromAnswer(ans), dig, nil
		}
		lsp.SetInt("hit", 0).End()
	}
	// One snapshot load: the whole scan runs against a single epoch even
	// if mutations land mid-query.
	sp := cfg.tr.StartSpan("snapshot")
	ep := ix.snap()
	sp.SetInt("epoch", int64(ep.seq)).End()
	dig.epoch = ep.seq
	res, dig.work, err = kind.scan(ep.gir, ctx, q, k, algo.QueryOpts{
		Workers: cfg.resolveWorkers(ix),
		Trace:   cfg.tr,
	})
	if cfg.stats != nil {
		*cfg.stats = fromCounters(&dig.work)
	}
	if err != nil {
		return res, dig, err
	}
	cfg.served(ep.seq)
	if cached {
		ssp := cfg.tr.StartSpan("cache.store")
		ac.Store(kind.kind, k, q, ep.seq, kind.toAnswer(res))
		ssp.End()
	}
	return res, dig, nil
}
