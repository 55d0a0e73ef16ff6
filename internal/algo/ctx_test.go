package algo

// Cancellation contract of the context-first scan: a dead context stops
// the query within one preference chunk per goroutine, returns ctx.Err(),
// leaks no workers, and still merges the counters for the work performed.

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gridrank/internal/dataset"
	"gridrank/internal/stats"
	"gridrank/internal/vec"
)

// countdownCtx is a deterministic cancellation source: its Err() returns
// nil for the first `after` calls and context.Canceled from then on, so
// tests can pin exactly which poll observes the cancellation without any
// timing dependence. Done() is non-nil so the scan's fast path (nil Done
// means an uncancellable context) does not skip polling.
type countdownCtx struct {
	context.Context // Background, for Deadline/Value
	mu              sync.Mutex
	calls, after    int
	done            chan struct{}
}

func newCountdownCtx(after int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// ctxTestGIR builds a GIR over a preference set far larger than one
// cancellation chunk, so a chunk-bounded stop is distinguishable from a
// full scan.
func ctxTestGIR(t *testing.T, nW int) (*GIR, vec.Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 60, 4, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, nW, 4)
	return NewGIR(P.Points, W.Points, P.Range, 16), P.Points[3]
}

func TestSequentialCancellationIsChunkBounded(t *testing.T) {
	const nW = 20 * cancelChunk
	gir, q := ctxTestGIR(t, nW)
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, c *stats.Counters) error
	}{
		{"rtk", func(ctx context.Context, c *stats.Counters) error {
			res, n, err := gir.ReverseTopKOpts(ctx, q, 10, QueryOpts{Workers: 1})
			*c = n
			if res != nil {
				t.Errorf("cancelled RTK returned a partial answer: %v", res)
			}
			return err
		}},
		{"rkr", func(ctx context.Context, c *stats.Counters) error {
			res, n, err := gir.ReverseKRanksOpts(ctx, q, 10, QueryOpts{Workers: 1})
			*c = n
			if res != nil {
				t.Errorf("cancelled RKR returned a partial answer: %v", res)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Call 1 is the upfront check; call 2 is the poll before the
			// second chunk, at weight cancelChunk. The scan must stop
			// there, having processed exactly one chunk of the 20.
			ctx := newCountdownCtx(1)
			var c stats.Counters
			if err := tc.run(ctx, &c); err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The counters count per-product decisions, so one chunk of
			// preferences costs at most cancelChunk * |P| of them.
			processed := c.Filtered + c.Refinements
			if processed == 0 {
				t.Fatal("counters empty: cancelled work must still be accounted")
			}
			if bound := int64(cancelChunk) * int64(gir.NumPoints()); processed > bound {
				t.Fatalf("%d point decisions after cancellation, one-chunk bound is %d", processed, bound)
			}
		})
	}
}

func TestParallelCancellationIsChunkBounded(t *testing.T) {
	const nW = 20 * cancelChunk
	const workers = 4
	gir, q := ctxTestGIR(t, nW)
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, c *stats.Counters) error
	}{
		{"rtk", func(ctx context.Context, c *stats.Counters) error {
			_, n, err := gir.ReverseTopKOpts(ctx, q, 10, QueryOpts{Workers: workers})
			*c = n
			return err
		}},
		{"rkr", func(ctx context.Context, c *stats.Counters) error {
			_, n, err := gir.ReverseKRanksOpts(ctx, q, 10, QueryOpts{Workers: workers})
			*c = n
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Call 1 is the upfront check; the next two polls (workers
			// claiming their first chunk) pass, every later poll reports
			// cancellation. However the polls interleave, at most two
			// chunks are ever claimed.
			ctx := newCountdownCtx(3)
			var c stats.Counters
			if err := tc.run(ctx, &c); err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			processed := c.Filtered + c.Refinements
			if bound := 2 * int64(cancelChunk) * int64(gir.NumPoints()); processed > bound {
				t.Fatalf("%d point decisions after cancellation, two-chunk bound is %d", processed, bound)
			}
			if full := int64(nW) * int64(gir.NumPoints()) / 2; processed >= full {
				t.Fatalf("cancelled parallel scan did %d decisions — not meaningfully early", processed)
			}
		})
	}
}

func TestCancelledQueryLeaksNoGoroutines(t *testing.T) {
	gir, q := ctxTestGIR(t, 8*cancelChunk)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx := newCountdownCtx(1 + i%4)
		if _, _, err := gir.ReverseTopKOpts(ctx, q, 10, QueryOpts{Workers: 4}); err != context.Canceled {
			t.Fatalf("run %d: err = %v", i, err)
		}
		if _, _, err := gir.ReverseKRanksOpts(ctx, q, 10, QueryOpts{Workers: 4}); err != context.Canceled {
			t.Fatalf("run %d: err = %v", i, err)
		}
	}
	// Workers exit through wg.Wait before the query returns, so the
	// goroutine count must settle back to the baseline.
	for attempt := 0; ; attempt++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		if attempt > 50 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExpiredDeadlineStopsBeforeScanning(t *testing.T) {
	gir, q := ctxTestGIR(t, 2*cancelChunk)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for _, workers := range []int{1, 4} {
		_, c, err := gir.ReverseTopKOpts(ctx, q, 10, QueryOpts{Workers: workers})
		if err != context.DeadlineExceeded {
			t.Fatalf("workers=%d RTK err = %v, want DeadlineExceeded", workers, err)
		}
		_, c2, err := gir.ReverseKRanksOpts(ctx, q, 10, QueryOpts{Workers: workers})
		if err != context.DeadlineExceeded {
			t.Fatalf("workers=%d RKR err = %v, want DeadlineExceeded", workers, err)
		}
		c.Add(&c2)
		if c.Filtered+c.Refinements != 0 {
			t.Fatalf("workers=%d: expired context still scanned %d weights", workers, c.Filtered+c.Refinements)
		}
	}
}

// TestCtxAnswersMatchPlainCalls pins the zero-cost property: running
// under a live cancellable context, at any worker count, changes no
// answer of the context-free RTKAlgorithm/RKRAlgorithm forms.
func TestCtxAnswersMatchPlainCalls(t *testing.T) {
	gir, q := ctxTestGIR(t, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wantRTK := gir.ReverseTopK(q, 10, nil)
	wantRKR := gir.ReverseKRanks(q, 10, nil)
	for _, workers := range []int{1, 2, 4, 8} {
		gotRTK, _, err := gir.ReverseTopKOpts(ctx, q, 10, QueryOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(wantRTK, gotRTK) {
			t.Fatalf("workers=%d: RTK %v != %v", workers, gotRTK, wantRTK)
		}
		gotRKR, _, err := gir.ReverseKRanksOpts(ctx, q, 10, QueryOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !equalMatches(wantRKR, gotRKR) {
			t.Fatalf("workers=%d: RKR %+v != %+v", workers, gotRKR, wantRKR)
		}
	}
}
