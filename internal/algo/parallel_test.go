package algo

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// parallelWorkerCounts are the intra-query pool sizes the tests sweep.
var parallelWorkerCounts = []int{2, 4, 8}

// rtkAt and rkrAt run a query at an explicit worker count under a
// background context — test shorthand for the Opts entrypoints. The
// query's counts are added to c when it is non-nil.
func rtkAt(gr *GIR, q vec.Vector, k, workers int, c *stats.Counters) []int {
	res, n, _ := gr.ReverseTopKOpts(context.Background(), q, k, QueryOpts{Workers: workers})
	if c != nil {
		c.Add(&n)
	}
	return res
}

func rkrAt(gr *GIR, q vec.Vector, k, workers int, c *stats.Counters) []topk.Match {
	res, n, _ := gr.ReverseKRanksOpts(context.Background(), q, k, QueryOpts{Workers: workers})
	if c != nil {
		c.Add(&n)
	}
	return res
}

// TestParallelCrossValidation is the race-proving property test of the
// parallel execution path: across 50+ randomized datasets (dimensions,
// sizes, grid resolutions and correlation structures all vary), parallel
// GIR at every worker count must return point-for-point identical
// RTK/RKR answers to sequential GIR and to brute force, and the merged
// per-worker counters must satisfy the Stats invariants. Run it under
// -race to turn every missing synchronization into a failure.
func TestParallelCrossValidation(t *testing.T) {
	datasets := 54
	if testing.Short() {
		datasets = 16
	}
	pdists := []dataset.Distribution{dataset.Uniform, dataset.Clustered, dataset.AntiCorrelated, dataset.Normal}
	wdists := []dataset.Distribution{dataset.Uniform, dataset.Clustered, dataset.Exponential}
	for i := 0; i < datasets; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		pd := pdists[i%len(pdists)]
		wd := wdists[i%len(wdists)]
		d := 2 + rng.Intn(6)               // 2..7
		nP := 40 + rng.Intn(160)           // 40..199
		nW := 30 + rng.Intn(140)           // 30..169
		n := []int{4, 16, 32}[rng.Intn(3)] // grid resolution
		name := fmt.Sprintf("%02d-%s-%s-d%d-P%d-W%d-n%d", i, pd, wd, d, nP, nW, n)
		t.Run(name, func(t *testing.T) {
			P := dataset.GenerateProducts(rng, pd, nP, d, dataset.DefaultRange)
			W := dataset.GenerateWeights(rng, wd, nW, d)
			brute := NewBrute(P.Points, W.Points)
			gir := NewGIR(P.Points, W.Points, P.Range, n)
			for qi := 0; qi < 2; qi++ {
				var q vec.Vector
				if qi == 0 {
					q = P.Points[rng.Intn(nP)]
				} else {
					q = make(vec.Vector, d) // external query point
					for j := range q {
						q[j] = rng.Float64() * P.Range
					}
				}
				for _, k := range []int{1, 7} {
					wantRTK := brute.ReverseTopK(q, k, nil)
					seqRTK := gir.ReverseTopK(q, k, nil)
					if !equalInts(seqRTK, wantRTK) {
						t.Fatalf("sequential GIR RTK k=%d disagrees with brute: got %v want %v", k, seqRTK, wantRTK)
					}
					wantRKR := brute.ReverseKRanks(q, k, nil)
					seqRKR := gir.ReverseKRanks(q, k, nil)
					if !equalMatches(seqRKR, wantRKR) {
						t.Fatalf("sequential GIR RKR k=%d disagrees with brute: got %+v want %+v", k, seqRKR, wantRKR)
					}
					for _, workers := range parallelWorkerCounts {
						var c stats.Counters
						got := rtkAt(gir, q, k, workers, &c)
						if !equalInts(got, wantRTK) {
							t.Fatalf("parallel RTK k=%d workers=%d: got %v want %v", k, workers, got, wantRTK)
						}
						checkStatsInvariants(t, &c)
						c.Reset()
						gotKR := rkrAt(gir, q, k, workers, &c)
						if !equalMatches(gotKR, wantRKR) {
							t.Fatalf("parallel RKR k=%d workers=%d: got %+v want %+v", k, workers, gotKR, wantRKR)
						}
						checkStatsInvariants(t, &c)
					}
				}
			}
		})
	}
}

// TestParallelCrossValidationPlanted runs the parallel cross-validation
// over planted datasets (plantedSets): near-ties at the rounding
// margin's edges and 0, k − 1, k and k + 1 dominators, where the
// dominator pre-pass decides some reverse top-k answers before the
// fan-out and hands the others a complete set every worker reads. Run
// it under -race.
func TestParallelCrossValidationPlanted(t *testing.T) {
	pdists := []dataset.Distribution{dataset.Uniform, dataset.Clustered, dataset.AntiCorrelated, dataset.Normal}
	wdists := []dataset.Distribution{dataset.Uniform, dataset.Clustered, dataset.Exponential}
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for i := 0; i < seeds; i++ {
		rng := rand.New(rand.NewSource(int64(1500 + i)))
		n := []int{4, 16, 32}[i%3]
		for _, ps := range plantedSets(rng, pdists[(i+1)%len(pdists)], wdists[(i+2)%len(wdists)]) {
			t.Run(fmt.Sprintf("%02d-%s-d%d-n%d", i, ps.name, len(ps.q), n), func(t *testing.T) {
				checkPlanted(t, ps, n)
			})
		}
	}
}

// checkStatsInvariants asserts the accounting identities that must
// survive the per-worker counter merge under grouped counting (see
// DESIGN.md §9): ApproxVisited and BoundSums count per GROUP bound
// evaluation (one fused pass per distinct cell, so they stay equal),
// while Filtered and Refinements count per POINT — a visited group with
// live members decides at least one point, so the per-point tallies are
// at least the per-group ones, and the derived filter rate is a valid
// fraction.
func checkStatsInvariants(t *testing.T, c *stats.Counters) {
	t.Helper()
	if c.Filtered+c.Refinements < c.ApproxVisited {
		t.Fatalf("merged stats: Filtered(%d) + Refined(%d) < groups examined (%d)",
			c.Filtered, c.Refinements, c.ApproxVisited)
	}
	if c.BoundSums != c.ApproxVisited {
		t.Fatalf("merged stats: BoundSums(%d) != ApproxVisited(%d)", c.BoundSums, c.ApproxVisited)
	}
	if r := c.FilterRate(); r < 0 || r > 1 {
		t.Fatalf("merged stats: FilterRate %v outside [0,1]", r)
	}
	if c.Queries != 1 {
		t.Fatalf("merged stats: Queries = %d, want 1 (workers must not each count a query)", c.Queries)
	}
}

// TestParallelDominShortCircuit pins the Algorithm 2 early exit at
// every worker count: a query dominated by >= k points yields the empty
// answer, and the pre-pass decides it before any worker starts (bounded
// work), not just eventually correct.
func TestParallelDominShortCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 400, 4, 100)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 200, 4)
	q := vec.Vector{99, 99, 99, 99} // dominated by nearly everything
	gir := NewGIR(P.Points, W.Points, P.Range, 32)
	var cSeq stats.Counters
	want := gir.ReverseTopK(q, 5, &cSeq)
	if len(want) != 0 {
		t.Fatalf("corner query should have empty RTK, got %v", want)
	}
	for _, workers := range parallelWorkerCounts {
		var c stats.Counters
		if got := rtkAt(gir, q, 5, workers, &c); len(got) != 0 {
			t.Fatalf("workers=%d: corner query RTK = %v, want empty", workers, got)
		}
		// The early exit must keep the parallel scan within a small
		// multiple of the sequential work (each worker can overshoot by
		// at most its in-flight chunk).
		if c.PairwiseMults > (cSeq.PairwiseMults+1)*int64(workers)*64 {
			t.Errorf("workers=%d: early exit not effective: %d mults vs sequential %d",
				workers, c.PairwiseMults, cSeq.PairwiseMults)
		}
	}
}

// TestParallelWatermarkPruning checks that the shared RKR watermark
// actually prunes: the merged pairwise-multiplication count at 4 workers
// must stay within a small factor of the sequential count, not degrade
// to the unpruned scan.
func TestParallelWatermarkPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 1500, 5, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 800, 5)
	gir := NewGIR(P.Points, W.Points, P.Range, 32)
	q := P.Points[3]
	var cSeq, cPar, cNone stats.Counters
	want := gir.ReverseKRanks(q, 10, &cSeq)
	got := rkrAt(gir, q, 10, 4, &cPar)
	if !equalMatches(got, want) {
		t.Fatalf("parallel RKR disagrees: got %+v want %+v", got, want)
	}
	// Reference for "no pruning at all": cutoff never tightens below the
	// heap bound when every weight is evaluated with an infinite cutoff.
	// Use brute force's exhaustive count as the ceiling.
	NewBrute(P.Points, W.Points).ReverseKRanks(q, 10, &cNone)
	if cPar.PairwiseMults >= cNone.PairwiseMults {
		t.Errorf("watermark ineffective: parallel %d mults >= unpruned %d", cPar.PairwiseMults, cNone.PairwiseMults)
	}
	if cPar.PairwiseMults > cSeq.PairwiseMults*6 {
		t.Errorf("watermark too loose: parallel %d mults vs sequential %d", cPar.PairwiseMults, cSeq.PairwiseMults)
	}
}

// TestNormalizeWorkers pins the worker-count resolution rules.
func TestNormalizeWorkers(t *testing.T) {
	if got := normalizeWorkers(4, 100); got != 4 {
		t.Errorf("normalizeWorkers(4, 100) = %d, want 4", got)
	}
	if got := normalizeWorkers(8, 3); got != 3 {
		t.Errorf("normalizeWorkers(8, 3) = %d, want 3 (capped at |W|)", got)
	}
	if got := normalizeWorkers(0, 100); got < 1 {
		t.Errorf("normalizeWorkers(0, 100) = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := normalizeWorkers(-1, 100); got < 1 {
		t.Errorf("normalizeWorkers(-1, 100) = %d, want >= 1", got)
	}
}

// TestRankWatermark pins the CAS-min semantics and the cutoff combine.
func TestRankWatermark(t *testing.T) {
	wm := newRankWatermark()
	if got := wm.cutoff(50); got != 50 {
		t.Errorf("initial cutoff(50) = %d, want 50 (watermark unset)", got)
	}
	wm.tighten(30)
	wm.tighten(40) // looser value must not widen it
	if got := wm.v.Load(); got != 30 {
		t.Errorf("watermark = %d, want 30", got)
	}
	if got := wm.cutoff(50); got != 31 {
		t.Errorf("cutoff(50) = %d, want 31 (watermark + 1)", got)
	}
	if got := wm.cutoff(10); got != 10 {
		t.Errorf("cutoff(10) = %d, want 10 (local bound tighter)", got)
	}
}

// TestParallelEdgeCases mirrors the sequential edge cases on the
// parallel path: tiny W, k larger than both sets, worker counts beyond
// |W|, and the negative (GOMAXPROCS) worker count.
func TestParallelEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 60, 3, 100)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 5, 3)
	gir := NewGIR(P.Points, W.Points, P.Range, 16)
	q := P.Points[0]
	want := gir.ReverseKRanks(q, 9, nil) // k > |W|: all weights
	if len(want) != 5 {
		t.Fatalf("want all 5 weights, got %d", len(want))
	}
	for _, workers := range []int{2, 7, 64} {
		if got := rkrAt(gir, q, 9, workers, nil); !equalMatches(got, want) {
			t.Errorf("workers=%d k>|W|: got %+v want %+v", workers, got, want)
		}
	}
	if got := rtkAt(gir, q, 0, 4, nil); got != nil {
		t.Errorf("k=0 parallel RTK should return nil, got %v", got)
	}
	if got := rkrAt(gir, q, -3, 4, nil); got != nil {
		t.Errorf("negative k parallel RKR should return nil, got %v", got)
	}
	// A negative worker count means GOMAXPROCS.
	seqRTK := gir.ReverseTopK(q, 3, nil)
	if got := rtkAt(gir, q, 3, -1, nil); !equalInts(got, seqRTK) {
		t.Errorf("GOMAXPROCS workers: got %v want %v", got, seqRTK)
	}
}
