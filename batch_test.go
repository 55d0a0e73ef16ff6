package gridrank

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func batchIndex(t *testing.T) (*Index, []Vector) {
	t.Helper()
	P, err := GenerateProducts(11, Uniform, 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(12, Uniform, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix, P
}

func TestBatchMatchesSequential(t *testing.T) {
	ix, P := batchIndex(t)
	queries := P[:40]
	for _, workers := range []int{0, 1, 3, 64} {
		rtk := ix.ReverseTopKBatch(queries, 15, workers)
		rkr := ix.ReverseKRanksBatch(queries, 15, workers)
		if len(rtk) != len(queries) || len(rkr) != len(queries) {
			t.Fatalf("workers=%d: wrong result count", workers)
		}
		for i, q := range queries {
			if rtk[i].Query != i || rtk[i].Err != nil {
				t.Fatalf("workers=%d rtk[%d]: %+v", workers, i, rtk[i])
			}
			want, err := ix.ReverseTopKCtx(context.Background(), q, 15)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(rtk[i].Value) {
				t.Fatalf("workers=%d query %d: batch %v vs sequential %v",
					workers, i, rtk[i].Value, want)
			}
			for j := range want {
				if rtk[i].Value[j] != want[j] {
					t.Fatalf("workers=%d query %d: batch %v vs sequential %v",
						workers, i, rtk[i].Value, want)
				}
			}
			wantKR, err := ix.ReverseKRanksCtx(context.Background(), q, 15)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wantKR {
				if rkr[i].Value[j] != wantKR[j] {
					t.Fatalf("workers=%d query %d RKR mismatch", workers, i)
				}
			}
		}
	}
}

// TestBatchPinsWorkerGoroutines pins the fix for worker multiplication:
// a batch on an index configured with intra-query Parallelism used to
// spawn workers × Parallelism goroutines (each per-query scan picked up
// the index default underneath the batch's own pool). The batch now
// forces sequential per-query scans, so the goroutine peak stays at the
// batch worker count.
func TestBatchPinsWorkerGoroutines(t *testing.T) {
	P, err := GenerateProducts(41, Uniform, 4000, 6)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(42, Uniform, 1200, 6)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := P[:48]
	const batchWorkers = 4
	baseline := runtime.NumGoroutine()
	stop := make(chan struct{})
	peakc := make(chan int, 1)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				peakc <- peak
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	}()
	res := ix.ReverseTopKBatchCtx(context.Background(), queries, 10, batchWorkers)
	close(stop)
	peak := <-peakc
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("query %d: %v", i, res[i].Err)
		}
	}
	// baseline + the batch pool + the sampler, with a little slack for
	// runtime helpers. The pre-fix behavior peaks at
	// baseline + batchWorkers × Parallelism and trips this by a wide
	// margin.
	if limit := baseline + batchWorkers + 3; peak > limit {
		t.Fatalf("goroutine peak %d during batch (baseline %d, limit %d): per-query scans multiplied the batch workers",
			peak, baseline, limit)
	}
	// An explicit per-query override still works and answers identically.
	over := ix.ReverseTopKBatchCtx(context.Background(), queries[:8], 10, 2, WithWorkers(3))
	for i := range over {
		if over[i].Err != nil {
			t.Fatalf("override query %d: %v", i, over[i].Err)
		}
		want, err := ix.ReverseTopKCtx(context.Background(), queries[i], 10, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(over[i].Value) {
			t.Fatalf("override answers differ for query %d", i)
		}
		for j := range want {
			if over[i].Value[j] != want[j] {
				t.Fatalf("override answers differ for query %d", i)
			}
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	ix, _ := batchIndex(t)
	if got := ix.ReverseTopKBatch(nil, 5, 4); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

func TestBatchReportsPerQueryErrors(t *testing.T) {
	ix, P := batchIndex(t)
	queries := []Vector{P[0], {1, 2}, P[1]} // middle query has wrong dim
	res := ix.ReverseTopKBatch(queries, 5, 2)
	if res[0].Err != nil || res[2].Err != nil {
		t.Error("valid queries should succeed")
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "dimension") {
		t.Errorf("bad query error = %v", res[1].Err)
	}
}

// TestBatchRejectsPerCallSinks pins that a batch refuses WithStats and
// WithServedEpoch before any item runs: its items run concurrently with
// one option list, so they would all write the one sink at once (the
// race detector flags exactly that). Every result carries the error and
// the sinks stay untouched.
func TestBatchRejectsPerCallSinks(t *testing.T) {
	ix, P := batchIndex(t)
	queries := make([]Vector, 64)
	for i := range queries {
		queries[i] = P[i%len(P)]
	}
	before := ix.FlightCounts().Queries
	st := Stats{Refined: -1}
	epoch := uint64(99)
	for name, opt := range map[string]QueryOption{"stats": WithStats(&st), "epoch": WithServedEpoch(&epoch)} {
		rtk := ix.ReverseTopKBatch(queries, 5, 4, opt)
		rkr := ix.ReverseKRanksBatch(queries, 5, 4, WithWorkers(2), opt)
		for i := range queries {
			if rtk[i].Query != i || !errors.Is(rtk[i].Err, errBatchSink) || rtk[i].Value != nil {
				t.Fatalf("%s: rtk[%d] = %+v, want errBatchSink", name, i, rtk[i])
			}
			if rkr[i].Query != i || !errors.Is(rkr[i].Err, errBatchSink) || rkr[i].Value != nil {
				t.Fatalf("%s: rkr[%d] = %+v, want errBatchSink", name, i, rkr[i])
			}
		}
	}
	if st != (Stats{Refined: -1}) || epoch != 99 {
		t.Fatalf("sinks written by a rejected batch: stats %+v, epoch %d", st, epoch)
	}
	if got := ix.FlightCounts().Queries; got != before {
		t.Fatalf("a rejected batch ran %d queries", got-before)
	}
}
