package algo

import (
	"context"
	"math/rand"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/vec"
)

// TestSteadyStateAllocations proves the zero-allocation query path: once
// the state pool is warm, a one-worker query — the scan loop running
// inline on the calling goroutine — allocates only its result slice;
// everything else (Domin buffer, bound scratch, heap, collection buffer)
// is recycled, and no goroutine, cursor or shared atomic is created.
// The bound is 2 to absorb the occasional pool miss after a GC cycle;
// the typical count is 1 (RKR) and 0 or 1 (RTK).
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, skewing AllocsPerRun")
	}
	rng := rand.New(rand.NewSource(42))
	P := dataset.GenerateProducts(rng, dataset.Clustered, 500, 6, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 200, 6)
	gir := NewGIR(P.Points, W.Points, P.Range, 32)
	// A query with a non-empty RTK answer, so the result-copy path runs.
	q := make(vec.Vector, 6) // the origin is in everyone's top-k
	for i := 0; i < 3; i++ { // warm the pool
		gir.ReverseKRanks(q, 10, nil)
		gir.ReverseTopK(q, 10, nil)
	}
	if got := testing.AllocsPerRun(20, func() { gir.ReverseKRanks(q, 10, nil) }); got > 2 {
		t.Errorf("steady-state RKR allocates %v times per query, want <= 2", got)
	}
	if got := testing.AllocsPerRun(20, func() { gir.ReverseTopK(q, 10, nil) }); got > 2 {
		t.Errorf("steady-state RTK allocates %v times per query, want <= 2", got)
	}
	// The Opts entrypoints under a live cancellable context must match:
	// polling ctx between chunks, with a nil trace, pays nothing.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got := testing.AllocsPerRun(20, func() {
		if _, _, err := gir.ReverseKRanksOpts(ctx, q, 10, QueryOpts{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("cancellable-context RKR allocates %v times per query, want <= 2", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, _, err := gir.ReverseTopKOpts(ctx, q, 10, QueryOpts{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("cancellable-context RTK allocates %v times per query, want <= 2", got)
	}
}
