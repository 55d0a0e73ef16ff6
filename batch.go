package gridrank

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// BatchResult pairs one query's answer with its position in the input.
type BatchResult[T any] struct {
	Query int
	Value T
	Err   error
}

// ReverseTopKBatchCtx answers many reverse top-k queries concurrently on
// up to workers goroutines (0 means GOMAXPROCS). Queries read one epoch
// snapshot each, so they share the index safely; results are returned in
// input order. The context governs the whole batch: when it is cancelled
// or expires, the in-flight queries stop within one preference chunk and
// every unfinished entry carries ctx.Err().
//
// Each per-query scan runs sequentially (WithWorkers(1)) regardless of
// the index's Parallelism setting: the batch already parallelizes across
// queries, and nesting the index default under every batch worker would
// multiply the goroutine count to workers × Parallelism and oversubscribe
// the CPUs. Pass WithWorkers explicitly in opts to override (opts apply
// to every query in the batch, and later options win).
//
// The per-call sinks, WithStats and WithServedEpoch, are rejected before
// any query runs — every item would write the one sink concurrently —
// and every result then carries the error. Each item's work counts are
// still kept: like every query, it leaves its case breakdown in its
// flight-recorder digest. WithTrace IS usable: a trace serializes span
// recording internally, so every query of the batch lands its spans on
// the one trace.
func (ix *Index) ReverseTopKBatchCtx(ctx context.Context, queries []Vector, k, workers int, opts ...QueryOption) []BatchResult[[]int] {
	opts = append([]QueryOption{WithWorkers(1)}, opts...)
	return runBatch(ctx, queries, workers, opts, func(q Vector) ([]int, error) {
		return ix.ReverseTopKCtx(ctx, q, k, opts...)
	})
}

// ReverseKRanksBatchCtx answers many reverse k-ranks queries
// concurrently, with the same context, option and worker contracts as
// ReverseTopKBatchCtx.
func (ix *Index) ReverseKRanksBatchCtx(ctx context.Context, queries []Vector, k, workers int, opts ...QueryOption) []BatchResult[[]Match] {
	opts = append([]QueryOption{WithWorkers(1)}, opts...)
	return runBatch(ctx, queries, workers, opts, func(q Vector) ([]Match, error) {
		return ix.ReverseKRanksCtx(ctx, q, k, opts...)
	})
}

// ReverseTopKBatch is ReverseTopKBatchCtx with a background context.
func (ix *Index) ReverseTopKBatch(queries []Vector, k, workers int, opts ...QueryOption) []BatchResult[[]int] {
	return ix.ReverseTopKBatchCtx(context.Background(), queries, k, workers, opts...)
}

// ReverseKRanksBatch is ReverseKRanksBatchCtx with a background context.
func (ix *Index) ReverseKRanksBatch(queries []Vector, k, workers int, opts ...QueryOption) []BatchResult[[]Match] {
	return ix.ReverseKRanksBatchCtx(context.Background(), queries, k, workers, opts...)
}

// errBatchSink rejects a batch whose options carry a per-call sink.
var errBatchSink = errors.New("gridrank: WithStats and WithServedEpoch cannot be used with a batch: its queries would write the one sink concurrently")

// batchOptions checks the options every item of a batch will run with:
// an invalid option or a per-call sink fails the whole batch up front.
func batchOptions(opts []QueryOption) error {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return err
	}
	if cfg.stats != nil || cfg.servedEpoch != nil {
		return errBatchSink
	}
	return nil
}

func runBatch[T any](ctx context.Context, queries []Vector, workers int, opts []QueryOption, f func(Vector) (T, error)) []BatchResult[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	out := make([]BatchResult[T], len(queries))
	if len(queries) == 0 {
		return out
	}
	if err := batchOptions(opts); err != nil {
		for i := range out {
			out[i] = BatchResult[T]{Query: i, Err: err}
		}
		return out
	}
	done := ctx.Done()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(queries) {
					return
				}
				res := BatchResult[T]{Query: i}
				// A dead context fails the remaining queries immediately
				// instead of running them; the per-query scan handles
				// cancellation mid-flight.
				if done != nil && ctx.Err() != nil {
					res.Err = ctx.Err()
					out[i] = res
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							res.Err = fmt.Errorf("gridrank: query %d panicked: %v", i, r)
						}
					}()
					res.Value, res.Err = f(queries[i])
				}()
				out[i] = res
			}
		}()
	}
	wg.Wait()
	return out
}
