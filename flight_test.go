package gridrank

import (
	"context"
	"testing"

	"gridrank/internal/flight"
	"gridrank/internal/trace"
)

// flightTestIndex builds a small index for flight-recorder tests.
func flightTestIndex(t *testing.T, opts *Options) *Index {
	t.Helper()
	P, err := GenerateProducts(1, Uniform, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(2, Uniform, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// newestOf returns the newest flight record of the given class.
func newestOf(t *testing.T, ix *Index, class flight.Class) flight.Record {
	t.Helper()
	for _, r := range ix.FlightRecords() {
		if r.Class == class {
			return r
		}
	}
	t.Fatalf("no %v record in %d records", class, len(ix.FlightRecords()))
	return flight.Record{}
}

func TestFlightQueryDigests(t *testing.T) {
	ix := flightTestIndex(t, nil)
	if !ix.FlightEnabled() {
		t.Fatal("flight recorder should be on by default")
	}
	ctx := context.Background()
	q := ix.snap().pm.Row(3)

	// Plain query: every scan counts, so the digest carries the case
	// breakdown without WithStats — the same one a statted run of the
	// same one-worker query reports.
	if _, err := ix.ReverseTopKCtx(ctx, q, 10); err != nil {
		t.Fatal(err)
	}
	rec := newestOf(t, ix, flight.ClassQuery)
	if rec.Op != flight.OpReverseTopK || rec.Outcome != flight.OutcomeOK {
		t.Fatalf("record = %+v, want ok reverse_topk", rec)
	}
	if rec.K != 10 || rec.Epoch != 0 || rec.DurNs <= 0 {
		t.Fatalf("record = %+v, want k=10 epoch=0 positive duration", rec)
	}
	if rec.Case1+rec.Case2+rec.Case3 == 0 {
		t.Fatalf("record = %+v, want the scan's case counts", rec)
	}
	plain := rec
	var st Stats
	if _, err := ix.ReverseTopKCtx(ctx, q, 10, WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	requireDigestCases(t, "plain", plain, st)
	requireDigestCases(t, "statted", newestOf(t, ix, flight.ClassQuery), st)

	// Statted reverse k-ranks: the scan's case breakdown lands in the
	// digest.
	if _, err := ix.ReverseKRanksCtx(ctx, q, 5, WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	rec = newestOf(t, ix, flight.ClassQuery)
	if rec.Op != flight.OpReverseKRanks {
		t.Fatalf("record = %+v, want reverse_kranks", rec)
	}
	requireDigestCases(t, "reverse k-ranks", rec, st)

	// Traced and fanned-out queries record the cases WithStats reports
	// for the same call.
	tracer := trace.New(trace.Config{SampleRate: 1})
	tr := tracer.Start("reverse_topk", trace.Parent{})
	if _, err := ix.ReverseTopKCtx(ctx, q, 10, WithTrace(tr), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	requireDigestCases(t, "traced", newestOf(t, ix, flight.ClassQuery), st)
	if _, err := ix.ReverseKRanksCtx(ctx, q, 5, WithWorkers(4), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	requireDigestCases(t, "4-worker", newestOf(t, ix, flight.ClassQuery), st)

	// A batch item records the cases of the same query run alone at one
	// worker (batch items scan on one worker each).
	if res := ix.ReverseTopKBatch([]Vector{q}, 10, 2); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	rec = newestOf(t, ix, flight.ClassQuery)
	if rec.Case1 != plain.Case1 || rec.Case2 != plain.Case2 || rec.Case3 != plain.Case3 {
		t.Fatalf("batch item cases (%d,%d,%d) != one-worker query (%d,%d,%d)",
			rec.Case1, rec.Case2, rec.Case3, plain.Case1, plain.Case2, plain.Case3)
	}

	// A cache hit performs no scan and records zeros.
	cached := flightTestIndex(t, &Options{CacheSize: 16})
	for i := 0; i < 2; i++ {
		if _, err := cached.ReverseTopKCtx(ctx, q, 10); err != nil {
			t.Fatal(err)
		}
	}
	rec = newestOf(t, cached, flight.ClassQuery)
	if rec.Flags&flight.FlagCacheHit == 0 || rec.Case1 != 0 || rec.Case2 != 0 || rec.Case3 != 0 {
		t.Fatalf("record = %+v, want a cache hit with zero case counts", rec)
	}

	// Validation error: still recorded, outcome error.
	if _, err := ix.ReverseTopKCtx(ctx, q, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	rec = newestOf(t, ix, flight.ClassQuery)
	if rec.Outcome != flight.OutcomeError || rec.K != 0 {
		t.Fatalf("record = %+v, want error outcome for k=0", rec)
	}

	// Cancelled context: outcome canceled.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ix.ReverseTopKCtx(cctx, q, 10); err == nil {
		t.Fatal("cancelled context accepted")
	}
	rec = newestOf(t, ix, flight.ClassQuery)
	if rec.Outcome != flight.OutcomeCanceled {
		t.Fatalf("record = %+v, want canceled outcome", rec)
	}

	c := ix.FlightCounts()
	if c.Queries < 4 || c.Recorded != c.Queries {
		t.Fatalf("counts = %+v, want >= 4 query records", c)
	}
}

// requireDigestCases checks that a query digest's Case-1/2/3 breakdown
// is the one WithStats reported for the same call, and that it is not
// empty.
func requireDigestCases(t *testing.T, name string, rec flight.Record, st Stats) {
	t.Helper()
	if rec.Case1 != st.Case1Filtered || rec.Case2 != st.Case2Filtered || rec.Case3 != st.Refined {
		t.Fatalf("%s: record cases (%d,%d,%d) != stats (%d,%d,%d)", name,
			rec.Case1, rec.Case2, rec.Case3, st.Case1Filtered, st.Case2Filtered, st.Refined)
	}
	if rec.Case1+rec.Case2+rec.Case3 == 0 {
		t.Fatalf("%s: record = %+v, want non-zero case counts", name, rec)
	}
}

func TestFlightQueryCacheHitAndTrace(t *testing.T) {
	ix := flightTestIndex(t, &Options{CacheSize: 16})
	ctx := context.Background()
	q := ix.snap().pm.Row(7)
	if _, err := ix.ReverseTopKCtx(ctx, q, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ReverseTopKCtx(ctx, q, 10); err != nil { // hit
		t.Fatal(err)
	}
	rec := newestOf(t, ix, flight.ClassQuery)
	if rec.Flags&flight.FlagCacheHit == 0 {
		t.Fatalf("record = %+v, want cache-hit flag", rec)
	}

	// Traced query: the digest carries the sampled trace's raw ID.
	tracer := trace.New(trace.Config{SampleRate: 1})
	tr := tracer.Start("reverse_topk", trace.Parent{})
	if _, err := ix.ReverseTopKCtx(ctx, q, 3, WithTrace(tr), WithoutCache()); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	rec = newestOf(t, ix, flight.ClassQuery)
	if rec.Flags&flight.FlagSampled == 0 {
		t.Fatalf("record = %+v, want sampled flag", rec)
	}
	if got := rec.TraceID(); got != tr.ID() {
		t.Fatalf("record trace ID %q != trace %q", got, tr.ID())
	}
}

func TestFlightMutationDigests(t *testing.T) {
	ix := flightTestIndex(t, &Options{CacheSize: 16})
	ctx := context.Background()
	q := ix.snap().pm.Row(3)
	// Seed a cache entry so the insert's sweep has something to count.
	if _, err := ix.ReverseTopKCtx(ctx, q, 10); err != nil {
		t.Fatal(err)
	}

	// In-range insert derives the next epoch.
	if _, err := ix.InsertProduct(Vector{0.1, 0.1, 0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	rec := newestOf(t, ix, flight.ClassMutation)
	if rec.Op != flight.OpInsertProduct || rec.Epoch != 1 || rec.DurNs <= 0 {
		t.Fatalf("record = %+v, want insert_product at epoch 1", rec)
	}
	if rec.Flags&flight.FlagDerived == 0 {
		t.Fatalf("record = %+v, want derived flag for in-range insert", rec)
	}

	// Range-growing insert rebuilds.
	if _, err := ix.InsertProduct(Vector{1e9, 1e9, 1e9, 1e9}); err != nil {
		t.Fatal(err)
	}
	rec = newestOf(t, ix, flight.ClassMutation)
	if rec.Flags&flight.FlagDerived != 0 {
		t.Fatalf("record = %+v, want rebuild (no derived flag) for range-growing insert", rec)
	}

	// Batch insert: one record for the whole batch.
	pre := ix.FlightCounts().Mutations
	if _, err := ix.InsertPreferences([]Vector{{0.25, 0.25, 0.25, 0.25}, {0.4, 0.2, 0.2, 0.2}}); err != nil {
		t.Fatal(err)
	}
	if got := ix.FlightCounts().Mutations - pre; got != 1 {
		t.Fatalf("batch recorded %d mutation digests, want 1", got)
	}
	rec = newestOf(t, ix, flight.ClassMutation)
	if rec.Op != flight.OpInsertPreferences || rec.Epoch != 3 {
		t.Fatalf("record = %+v, want insert_preferences at epoch 3", rec)
	}
}

func TestFlightMutationCountsCacheSweeps(t *testing.T) {
	ix := flightTestIndex(t, &Options{CacheSize: 32})
	ctx := context.Background()
	// Fill the cache, then flush it with a batch mutation: the digest's
	// Aux1 must reflect the swept entries.
	for i := 0; i < 5; i++ {
		if _, err := ix.ReverseTopKCtx(ctx, ix.snap().pm.Row(i), 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.DeleteProducts([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	rec := newestOf(t, ix, flight.ClassMutation)
	if rec.Op != flight.OpDeleteProducts {
		t.Fatalf("record = %+v, want delete_products", rec)
	}
	if rec.Aux1 == 0 {
		t.Fatalf("record = %+v, want non-zero cache sweep count (flush of 5 entries)", rec)
	}
}

func TestFlightSubscriptionDigests(t *testing.T) {
	ix := flightTestIndex(t, nil)
	q := ix.snap().pm.Row(2)
	s, err := ix.Subscribe(q, 5, SubReverseKRanks, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := newestOf(t, ix, flight.ClassSub)
	if rec.Op != flight.OpSubscribe || rec.K != 5 || rec.Aux1 != 1 || rec.Aux2 != int64(s.ID()) {
		t.Fatalf("record = %+v, want subscribe k=5 kind=1 id=%d", rec, s.ID())
	}
	// The subscribe's diff work must not be billed to a mutation: a
	// following mutation's Aux2 counts only its own evaluations.
	if _, err := ix.InsertProduct(Vector{0.2, 0.2, 0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	mrec := newestOf(t, ix, flight.ClassMutation)
	if mrec.Aux2 < 0 {
		t.Fatalf("record = %+v, negative sub diff evals", mrec)
	}
	s.Close()
	rec = newestOf(t, ix, flight.ClassSub)
	if rec.Op != flight.OpUnsubscribe || rec.Aux2 != int64(s.ID()) {
		t.Fatalf("record = %+v, want unsubscribe of id %d", rec, s.ID())
	}
	s.Close() // idempotent: no second unsubscribe record
	c := ix.FlightCounts()
	if c.Subscriptions != 2 {
		t.Fatalf("counts = %+v, want exactly 2 subscription records", c)
	}
}

func TestFlightDisabled(t *testing.T) {
	ix := flightTestIndex(t, &Options{FlightCapacity: -1})
	if ix.FlightEnabled() {
		t.Fatal("FlightCapacity -1 should disable the recorder")
	}
	ctx := context.Background()
	if _, err := ix.ReverseTopKCtx(ctx, ix.snap().pm.Row(0), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.InsertProduct(Vector{0.1, 0.1, 0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	if got := ix.FlightRecords(); got != nil {
		t.Fatalf("disabled recorder returned %d records", len(got))
	}
	if c := ix.FlightCounts(); c != (flight.Counts{}) {
		t.Fatalf("disabled recorder counts = %+v", c)
	}
}

func TestFlightCapacityOption(t *testing.T) {
	ix := flightTestIndex(t, &Options{FlightCapacity: 100})
	if got := ix.FlightCounts().Capacity; got != 128 {
		t.Fatalf("capacity = %d, want 128 (rounded up)", got)
	}
	ix = flightTestIndex(t, nil)
	if got := ix.FlightCounts().Capacity; got != flight.DefaultCapacity {
		t.Fatalf("capacity = %d, want default %d", got, flight.DefaultCapacity)
	}
}

func TestFlightLoadedIndexRecords(t *testing.T) {
	ix := flightTestIndex(t, nil)
	dir := t.TempDir()
	path := dir + "/ix.gri"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.FlightEnabled() {
		t.Fatal("loaded index should have the recorder on")
	}
	if _, err := loaded.ReverseTopKCtx(context.Background(), loaded.snap().pm.Row(0), 5); err != nil {
		t.Fatal(err)
	}
	if got := loaded.FlightCounts().Queries; got != 1 {
		t.Fatalf("loaded index recorded %d queries, want 1", got)
	}
}

// TestFlightZeroAllocOverhead is the acceptance pin: recording a flight
// digest adds zero allocations to the query path. It compares
// allocations per query between a recorder-on and a recorder-off index
// over identical data and query.
func TestFlightZeroAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	on := flightTestIndex(t, nil)
	off := flightTestIndex(t, &Options{FlightCapacity: -1})
	ctx := context.Background()
	q := on.snap().pm.Row(3)
	run := func(ix *Index) float64 {
		// Warm up any lazily-grown internals before counting.
		if _, err := ix.ReverseTopKCtx(ctx, q, 10); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := ix.ReverseTopKCtx(ctx, q, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	offAllocs, onAllocs := run(off), run(on)
	if onAllocs != offAllocs {
		t.Fatalf("recorder adds allocations: %.1f allocs/op with recorder, %.1f without", onAllocs, offAllocs)
	}
	if got := on.FlightCounts().Queries; got == 0 {
		t.Fatal("recorder did not record during the alloc run")
	}
}
