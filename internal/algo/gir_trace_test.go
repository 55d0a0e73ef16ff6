package algo

import (
	"context"
	"math/rand"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/trace"
)

// traceSpans runs one traced query and returns the captured span set
// indexed by name (last span wins for duplicate names).
func traceSpans(t *testing.T, run func(tr *trace.Trace)) (*trace.TraceData, map[string]trace.SpanData) {
	t.Helper()
	tc := trace.New(trace.Config{SampleRate: 1})
	tr := tc.Start("query", trace.Parent{})
	if tr == nil {
		t.Fatal("rate-1 tracer did not sample")
	}
	run(tr)
	tr.Finish()
	td := tc.Get(tr.ID())
	if td == nil {
		t.Fatal("trace not stored")
	}
	byName := make(map[string]trace.SpanData)
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
	}
	return td, byName
}

func traceTestGIR(t *testing.T) *GIR {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	P := dataset.GenerateProducts(rng, dataset.Clustered, 400, 5, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 300, 5)
	return NewGIR(P.Points, W.Points, P.Range, 32)
}

func requireCaseBreakdown(t *testing.T, sp trace.SpanData, c *stats.Counters) {
	t.Helper()
	for _, key := range []string{"case1_filtered", "case2_filtered", "case3_refined", "bound_sums", "exact_scores", "filter_rate"} {
		if _, ok := sp.Attrs[key]; !ok {
			t.Errorf("span %s missing attr %s: %+v", sp.Name, key, sp.Attrs)
		}
	}
	if got := sp.Attrs["case1_filtered"]; got != c.Case1Filtered {
		t.Errorf("case1_filtered attr %v != counter %d", got, c.Case1Filtered)
	}
	if got := sp.Attrs["case2_filtered"]; got != c.Case2Filtered {
		t.Errorf("case2_filtered attr %v != counter %d", got, c.Case2Filtered)
	}
	if got := sp.Attrs["case3_refined"]; got != c.Refinements {
		t.Errorf("case3_refined attr %v != counter %d", got, c.Refinements)
	}
	if c1, c2 := sp.Attrs["case1_filtered"].(int64), sp.Attrs["case2_filtered"].(int64); c1+c2 == 0 {
		t.Errorf("span %s recorded no filtered points — dataset too small for a meaningful test", sp.Name)
	}
}

// requireDominatorsSpan checks the pre-pass span: it precedes the scan,
// carries the count the query returned, and says whether that count
// decided the answer.
func requireDominatorsSpan(t *testing.T, spans map[string]trace.SpanData, c *stats.Counters, decided bool) {
	t.Helper()
	dsp, ok := spans["dominators"]
	if !ok {
		t.Fatalf("no dominators span: %v", spans)
	}
	if got := dsp.Attrs["dominators"]; got != c.Dominators {
		t.Errorf("dominators attr %v != counter %d", got, c.Dominators)
	}
	if n, ok := dsp.Attrs["rows_read"].(int64); !ok || n < c.Dominators {
		t.Errorf("rows_read attr %v, want >= %d", dsp.Attrs["rows_read"], c.Dominators)
	}
	want := int64(0)
	if decided {
		want = 1
	}
	if got := dsp.Attrs["decided"]; got != want {
		t.Errorf("decided attr %v, want %d", got, want)
	}
	scan, scanned := spans["scan"]
	if scanned == decided {
		t.Errorf("scan span present = %v for a query the pre-pass decided = %v", scanned, decided)
	}
	if scanned && scan.OffsetNs < dsp.OffsetNs+dsp.DurationNs {
		t.Errorf("scan span starts before the dominators span ends")
	}
}

func TestSequentialScanSpans(t *testing.T) {
	gir := traceTestGIR(t)
	q := gir.Point(10)
	ctx := context.Background()

	var c stats.Counters
	_, spans := traceSpans(t, func(tr *trace.Trace) {
		var err error
		if _, c, err = gir.ReverseKRanksOpts(ctx, q, 5, QueryOpts{Workers: 1, Trace: tr}); err != nil {
			t.Fatal(err)
		}
	})
	scan, ok := spans["scan"]
	if !ok {
		t.Fatalf("no scan span: %v", spans)
	}
	requireCaseBreakdown(t, scan, &c)
	for _, key := range []string{"heap_admits", "cutoff_final", "weights"} {
		if _, ok := scan.Attrs[key]; !ok {
			t.Errorf("RKR scan span missing %s: %+v", key, scan.Attrs)
		}
	}
	if _, ok := spans["merge"]; !ok {
		t.Error("no merge span")
	}
	if _, ok := spans["scan.worker"]; ok {
		t.Error("sequential query emitted worker spans")
	}
	requireDominatorsSpan(t, spans, &c, false)

	// RTK: dominator count and fixed cutoff.
	_, spans = traceSpans(t, func(tr *trace.Trace) {
		var err error
		if _, c, err = gir.ReverseTopKOpts(ctx, q, 50, QueryOpts{Workers: 1, Trace: tr}); err != nil {
			t.Fatal(err)
		}
	})
	scan, ok = spans["scan"]
	if !ok {
		t.Fatal("no RTK scan span")
	}
	requireCaseBreakdown(t, scan, &c)
	requireDominatorsSpan(t, spans, &c, false)
	if got := scan.Attrs["cutoff_final"]; got != int64(50) {
		t.Errorf("RTK cutoff_final = %v, want 50", got)
	}

	// RTK decided by the pre-pass: a query above most of the catalog has
	// k dominators, so the trace holds the dominators span and no scan.
	high := make([]float64, len(q))
	for i := range high {
		high[i] = dataset.DefaultRange
	}
	var res []int
	_, spans = traceSpans(t, func(tr *trace.Trace) {
		var err error
		if res, c, err = gir.ReverseTopKOpts(ctx, high, 5, QueryOpts{Workers: 1, Trace: tr}); err != nil {
			t.Fatal(err)
		}
	})
	if res != nil || c.Dominators != 5 || c.BoundSums != 0 || c.PairwiseMults != 0 {
		t.Errorf("decided RTK: answer %v, counts %+v; want nil, 5 dominators and no scan work", res, c)
	}
	requireDominatorsSpan(t, spans, &c, true)
	if _, ok := spans["merge"]; ok {
		t.Error("decided RTK emitted a merge span")
	}
}

// TestTracedCountersWithoutStats checks that a traced query's scan span
// carries the case breakdown the query itself counted and returned,
// inline and fanned out: spans and callers read one counter set.
func TestTracedCountersWithoutStats(t *testing.T) {
	gir := traceTestGIR(t)
	q := gir.Point(3)
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		var c stats.Counters
		_, spans := traceSpans(t, func(tr *trace.Trace) {
			var err error
			if _, c, err = gir.ReverseKRanksOpts(ctx, q, 5, QueryOpts{Workers: workers, Trace: tr}); err != nil {
				t.Fatal(err)
			}
		})
		scan, ok := spans["scan"]
		if !ok {
			t.Fatalf("workers=%d: no scan span", workers)
		}
		requireCaseBreakdown(t, scan, &c)
	}
}

func TestParallelScanSpans(t *testing.T) {
	gir := traceTestGIR(t)
	q := gir.Point(10)
	ctx := context.Background()
	const workers = 3

	var c stats.Counters
	td, spans := traceSpans(t, func(tr *trace.Trace) {
		var err error
		if _, c, err = gir.ReverseKRanksOpts(ctx, q, 5, QueryOpts{Workers: workers, Trace: tr}); err != nil {
			t.Fatal(err)
		}
	})
	scan, ok := spans["scan"]
	if !ok {
		t.Fatal("no parallel scan span")
	}
	requireCaseBreakdown(t, scan, &c)
	if got := scan.Attrs["workers"]; got != int64(workers) {
		t.Errorf("workers attr = %v, want %d", got, workers)
	}
	var workerSpans, totalScanned int64
	for _, sp := range td.Spans {
		if sp.Name != "scan.worker" {
			continue
		}
		workerSpans++
		if sp.ParentID != scan.SpanID {
			t.Errorf("worker span parented to %s, want scan", sp.ParentID)
		}
		n, ok := sp.Attrs["weights_scanned"].(int64)
		if !ok {
			t.Errorf("worker span missing weights_scanned: %+v", sp.Attrs)
		}
		totalScanned += n
	}
	if workerSpans != workers {
		t.Fatalf("got %d worker spans, want %d", workerSpans, workers)
	}
	// RKR never exits early, so the workers jointly claim every weight.
	if totalScanned != int64(gir.NumWeights()) {
		t.Errorf("workers scanned %d weights jointly, want %d", totalScanned, gir.NumWeights())
	}
	if _, ok := spans["merge"]; !ok {
		t.Error("no parallel merge span")
	}

	// Parallel RTK spans, including the coordinator's dominator count.
	_, spans = traceSpans(t, func(tr *trace.Trace) {
		var err error
		if _, c, err = gir.ReverseTopKOpts(ctx, q, 50, QueryOpts{Workers: workers, Trace: tr}); err != nil {
			t.Fatal(err)
		}
	})
	scan, ok = spans["scan"]
	if !ok {
		t.Fatal("no parallel RTK scan span")
	}
	requireCaseBreakdown(t, scan, &c)
	requireDominatorsSpan(t, spans, &c, false)
}

// TestTracedMatchesUntraced pins that tracing never changes an answer.
func TestTracedMatchesUntraced(t *testing.T) {
	gir := traceTestGIR(t)
	tc := trace.New(trace.Config{SampleRate: 1})
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		for qi := 0; qi < 10; qi++ {
			q := gir.Point(qi * 7)
			tr := tc.Start("q", trace.Parent{})
			traced, _, err := gir.ReverseKRanksOpts(ctx, q, 5, QueryOpts{Workers: workers, Trace: tr})
			tr.Finish()
			if err != nil {
				t.Fatal(err)
			}
			plain, _, err := gir.ReverseKRanksOpts(ctx, q, 5, QueryOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(traced) != len(plain) {
				t.Fatalf("workers=%d q=%d: traced %d matches, plain %d", workers, qi, len(traced), len(plain))
			}
			for i := range traced {
				if traced[i] != plain[i] {
					t.Fatalf("workers=%d q=%d: match %d differs: %+v vs %+v", workers, qi, i, traced[i], plain[i])
				}
			}
		}
	}
}

// TestKRanksCutoffFinalIndependentOfWorkers: the RKR scan span's
// cutoff_final is the answer's k-th rank + 1 at every worker count, not
// a fanned-out worker's local threshold, and the scan span closes before
// the merge span opens, as RTK's does, so a trace counts no time twice.
func TestKRanksCutoffFinalIndependentOfWorkers(t *testing.T) {
	P := dataset.DianpingProducts(rand.New(rand.NewSource(1)), 2000)
	W := dataset.DianpingWeights(rand.New(rand.NewSource(2)), 5000)
	gir := NewGIR(P.Points, W.Points, P.Range, 32)
	q := gir.Point(42)
	const k = 5
	for _, workers := range []int{1, 2, 4, 8} {
		var res []topk.Match
		_, spans := traceSpans(t, func(tr *trace.Trace) {
			var err error
			if res, _, err = gir.ReverseKRanksOpts(context.Background(), q, k, QueryOpts{Workers: workers, Trace: tr}); err != nil {
				t.Fatal(err)
			}
		})
		if len(res) != k {
			t.Fatalf("workers=%d: %d matches, want %d", workers, len(res), k)
		}
		scan, merge := spans["scan"], spans["merge"]
		if got, want := scan.Attrs["cutoff_final"], int64(res[k-1].Rank+1); got != want {
			t.Errorf("workers=%d: cutoff_final = %v, want the k-th rank + 1 = %d", workers, got, want)
		}
		if end := scan.OffsetNs + scan.DurationNs; end > merge.OffsetNs {
			t.Errorf("workers=%d: scan span ends at %dns, after the merge span opens at %dns", workers, end, merge.OffsetNs)
		}
	}
}
