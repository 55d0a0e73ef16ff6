package gridrank

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gridrank/internal/algo"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// TestNearTieDominatorExact pins the near-tie dominator reproduction
// for every exact algorithm. Product p sits one ulp below q in every
// coordinate, so it dominates q in real arithmetic, yet its computed
// score under w1 equals f_w1(q) exactly — a tie, which never counts
// against q. A dominance test without a rounding margin counts p into
// every rank, turning rank(w1, q) = 0 into 1, so reverse top-k(q, 1)
// loses w1 and reverse k-ranks(q, 1) returns w0 at rank 1 instead of
// w1 at rank 0.
func TestNearTieDominatorExact(t *testing.T) {
	q := vec.Vector{2084.5645664387685, 2173.4881035876797, 8205.059569346357, 6285.119894087568}
	p := make(vec.Vector, len(q))
	for i, x := range q {
		p[i] = math.Nextafter(x, 0)
	}
	P := []vec.Vector{p, {9999, 9999, 9999, 9999}}
	W := []vec.Vector{
		{0.1689048124103054, 0.4093474666749852, 0.3960197882107428, 0.025727932703966606},
		{0.3628395554877572, 0.24086856993410793, 0.3103997339898321, 0.08589214058830263},
	}
	// The premise: p ties q under w1 and beats it under w0.
	if vec.Dot(W[1], p) != vec.Dot(W[1], q) || !(vec.Dot(W[0], p) < vec.Dot(W[0], q)) {
		t.Fatal("reproduction data no longer plants a near-tie dominator")
	}
	wantRTK := []int{1}
	wantRKR := []topk.Match{{WeightIndex: 1, Rank: 0}}
	checkRTK := func(name string, got []int) {
		t.Helper()
		if !reflect.DeepEqual(got, wantRTK) {
			t.Errorf("%s: reverse top-k(q, 1) = %v, want %v", name, got, wantRTK)
		}
	}
	checkRKR := func(name string, got []topk.Match) {
		t.Helper()
		if !reflect.DeepEqual(got, wantRKR) {
			t.Errorf("%s: reverse k-ranks(q, 1) = %v, want %v", name, got, wantRKR)
		}
	}

	brute := algo.NewBrute(P, W)
	checkRTK("brute", brute.ReverseTopK(q, 1, nil))
	checkRKR("brute", brute.ReverseKRanks(q, 1, nil))

	const rangeP = 10000
	for _, disable := range []bool{false, true} {
		gir := algo.NewGIR(P, W, rangeP, algo.DefaultPartitions)
		gir.DisableDomin = disable
		sim := algo.NewSIM(P, W)
		sim.DisableDomin = disable
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("GIR workers=%d DisableDomin=%v", workers, disable)
			res, _, err := gir.ReverseTopKOpts(context.Background(), q, 1, algo.QueryOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkRTK(name, res)
			ms, _, err := gir.ReverseKRanksOpts(context.Background(), q, 1, algo.QueryOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkRKR(name, ms)
		}
		checkRTK(fmt.Sprintf("SIM DisableDomin=%v", disable), sim.ReverseTopK(q, 1, nil))
		checkRKR(fmt.Sprintf("SIM DisableDomin=%v", disable), sim.ReverseKRanks(q, 1, nil))
	}
	sparse := algo.NewSparseGIR(P, W, rangeP, algo.DefaultPartitions)
	checkRTK("SparseGIR", sparse.ReverseTopK(q, 1, nil))
	checkRKR("SparseGIR", sparse.ReverseKRanks(q, 1, nil))
	checkRTK("BBR", algo.NewBBR(P, W, 4).ReverseTopK(q, 1, nil))
	mpa, err := algo.NewMPA(P, W, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkRKR("MPA", mpa.ReverseKRanks(q, 1, nil))
	checkRTK("RTA", algo.NewRTA(P, W).ReverseTopK(q, 1, nil))

	for _, cache := range []int{0, 16} {
		ix, err := New(P, W, &Options{CacheSize: cache})
		if err != nil {
			t.Fatal(err)
		}
		for _, rank := range []struct{ w, want int }{{0, 1}, {1, 0}} {
			if got, err := ix.Rank(W[rank.w], q); err != nil || got != rank.want {
				t.Fatalf("Index.Rank(w%d, q) = %d, %v; want %d", rank.w, got, err, rank.want)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("Index cache=%d workers=%d", cache, workers)
			for rep := 0; rep < 2; rep++ { // the second ask is a cache hit when the cache is on
				res, err := ix.ReverseTopKCtx(context.Background(), q, 1, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				checkRTK(name, res)
				ms, err := ix.ReverseKRanksCtx(context.Background(), q, 1, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				checkRKR(name, convertMatches[topk.Match](ms))
			}
		}
	}
}
