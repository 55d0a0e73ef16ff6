package algo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// This file cross-validates the cell-grouped scan against the pre-grouping
// per-point implementation, embedded below verbatim (modulo counters) as
// the reference. Grouping, visit reordering and state pooling are pure
// execution-strategy changes: answers must be identical element for
// element on every dataset, at every worker count — that is the contract
// DESIGN.md §9 argues and this test enforces.

// refRankBounded is the pre-grouping GInTop-k: a per-point scan over
// P^(A) with the same Case 1/2/3 classification, Domin buffer and cutoff
// semantics the grouped scan re-derives per group.
func refRankBounded(gr *GIR, wi int, q vec.Vector, cutoff int, dom *domin, bnd []float64) (int, bool) {
	w := gr.Weight(wi)
	fq := vec.Dot(w, q)
	rnk := dom.count
	if rnk >= cutoff {
		return cutoff, false
	}
	refGather(gr, wi, bnd)
	for pj, nP := 0, gr.NumPoints(); pj < nP; pj++ {
		if dom.has(pj) {
			continue
		}
		l, u := refBounds(gr, pj, bnd)
		if u < fq { // Case 1
			rnk++
			if !gr.DisableDomin {
				dom.observe(pj, gr.Point(pj))
			}
			if rnk >= cutoff {
				return cutoff, false
			}
			continue
		}
		if l <= fq { // Case 3
			if vec.Dot(w, gr.Point(pj)) < fq {
				rnk++
				if !gr.DisableDomin {
					dom.observe(pj, gr.Point(pj))
				}
				if rnk >= cutoff {
					return cutoff, false
				}
			}
		}
	}
	return rnk, true
}

// refGather lays out the grid columns weight wi selects in bnd, d·2n
// floats: bnd[i·2n + 2·pc] is the lower and bnd[i·2n + 2·pc + 1] the
// upper addend for dimension i, point cell pc.
func refGather(gr *GIR, wi int, bnd []float64) {
	n2 := 2 * gr.g.N()
	for i, wc := range gr.wa.Row(wi) {
		loCol := gr.g.LowerColumn(wc)
		upCol := gr.g.UpperColumn(wc)
		row := bnd[i*n2 : (i+1)*n2]
		for pc := range loCol {
			row[2*pc] = loCol[pc]
			row[2*pc+1] = upCol[pc]
		}
	}
}

// refBounds sums point pj's (lower, upper) Grid bounds (Equations 3 and
// 4) from the columns refGather laid out, in dimension order.
func refBounds(gr *GIR, pj int, bnd []float64) (l, u float64) {
	d := gr.pa.Dim()
	n2 := 2 * gr.g.N()
	off := 0
	for _, pc := range gr.pa.Cells()[pj*d : pj*d+d] {
		j := off + 2*int(pc)
		l += bnd[j]
		u += bnd[j+1]
		off += n2
	}
	return l, u
}

// refReverseTopK is the pre-grouping sequential GIRTop-k: ascending
// weight order, dominator early exit.
func refReverseTopK(gr *GIR, q vec.Vector, k int) []int {
	if k <= 0 {
		return nil
	}
	dom := newDomin(gr.NumPoints(), q)
	bnd := make([]float64, gr.pa.Dim()*2*gr.g.N())
	var res []int
	for wi, nW := 0, gr.NumWeights(); wi < nW; wi++ {
		if _, ok := refRankBounded(gr, wi, q, k, dom, bnd); ok {
			res = append(res, wi)
		}
		if dom.count >= k {
			return nil
		}
	}
	return res
}

// refReverseKRanks is the pre-grouping sequential GIRk-Rank: ascending
// weight order, heap threshold as the cutoff (safe only because the visit
// order is ascending by index — ties keep the earlier weight).
func refReverseKRanks(gr *GIR, q vec.Vector, k int) []topk.Match {
	if k <= 0 {
		return nil
	}
	dom := newDomin(gr.NumPoints(), q)
	bnd := make([]float64, gr.pa.Dim()*2*gr.g.N())
	h := topk.NewKRankHeap(k)
	for wi, nW := 0, gr.NumWeights(); wi < nW; wi++ {
		if rnk, ok := refRankBounded(gr, wi, q, h.Threshold(), dom, bnd); ok {
			h.Offer(topk.Match{WeightIndex: wi, Rank: rnk})
		}
	}
	return h.Results()
}

// catalogSet samples n vectors (with repetition) from a base catalog of
// distinct vectors, producing the duplicate-heavy datasets that stress
// multi-member cell groups.
func catalogSet(rng *rand.Rand, base []vec.Vector, n int) []vec.Vector {
	out := make([]vec.Vector, n)
	for i := range out {
		out[i] = base[rng.Intn(len(base))]
	}
	return out
}

// TestGroupedVsReference cross-validates grouped GIR (inline and at
// workers 2, 4, 8) against the embedded pre-grouping reference and brute
// force across 60+ datasets: UN/CL/AC/NO products × UN/CL/EX weights,
// d ∈ 2..10, grid resolutions from n=1 (every point in one cell) to
// n=256, and duplicate-heavy catalog-sampled sets. The grid sizes derive
// every packed width — 4 (n ≤ 16), 5 (32), 6 (64), 7 (128) and 8 (256)
// — so each width-specialized kernel stays under the oracle. Answers
// must be identical element for element everywhere. Run under -race in
// CI.
func TestGroupedVsReference(t *testing.T) {
	datasets, wide := 56, 9
	if testing.Short() {
		datasets, wide = 18, 6
	}
	pdists := []dataset.Distribution{dataset.Uniform, dataset.Clustered, dataset.AntiCorrelated, dataset.Normal}
	wdists := []dataset.Distribution{dataset.Uniform, dataset.Clustered, dataset.Exponential}
	// Datasets 56 and up are the wide grids, numbered past the full run's
	// coarse ones in every mode so each name always means one dataset.
	indexes := make([]int, 0, datasets+wide)
	for i := 0; i < datasets; i++ {
		indexes = append(indexes, i)
	}
	for i := 0; i < wide; i++ {
		indexes = append(indexes, 56+i)
	}
	for _, i := range indexes {
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		pd := pdists[i%len(pdists)]
		wd := wdists[i%len(wdists)]
		d := 2 + rng.Intn(9)                // 2..10
		nP := 30 + rng.Intn(150)            // 30..179
		nW := 25 + rng.Intn(120)            // 25..144
		n := []int{1, 2, 4, 8, 16, 32}[i%6] // coarse grids maximize grouping
		if i >= 56 {
			n = []int{64, 128, 256}[i%3]
		}
		dup := i%3 == 0 // every third dataset is catalog-sampled
		name := fmt.Sprintf("%02d-%s-%s-d%d-P%d-W%d-n%d-dup%v", i, pd, wd, d, nP, nW, n, dup)
		t.Run(name, func(t *testing.T) {
			P := dataset.GenerateProducts(rng, pd, nP, d, dataset.DefaultRange)
			W := dataset.GenerateWeights(rng, wd, nW, d)
			points, weights := P.Points, W.Points
			if dup {
				// Collapse onto a small catalog: ~5 members per distinct
				// vector, so most groups have many members.
				points = catalogSet(rng, points[:1+nP/5], nP)
				weights = catalogSet(rng, weights[:1+nW/5], nW)
			}
			brute := NewBrute(points, weights)
			gir := NewGIR(points, weights, P.Range, n)
			if b := gir.PackedBits(); b != PackedWidth(n) {
				t.Fatalf("n=%d: packed width %d, want %d", n, b, PackedWidth(n))
			}
			for qi := 0; qi < 2; qi++ {
				var q vec.Vector
				if qi == 0 {
					q = points[rng.Intn(nP)]
				} else {
					q = make(vec.Vector, d)
					for j := range q {
						q[j] = rng.Float64() * P.Range
					}
				}
				for _, k := range []int{1, 5, nW} {
					wantRTK := refReverseTopK(gir, q, k)
					wantRKR := refReverseKRanks(gir, q, k)
					// The reference must itself agree with brute force,
					// otherwise it proves nothing.
					if b := brute.ReverseTopK(q, k, nil); !equalInts(wantRTK, b) {
						t.Fatalf("reference RTK k=%d disagrees with brute: got %v want %v", k, wantRTK, b)
					}
					if b := brute.ReverseKRanks(q, k, nil); !equalMatches(wantRKR, b) {
						t.Fatalf("reference RKR k=%d disagrees with brute: got %+v want %+v", k, wantRKR, b)
					}
					for _, workers := range []int{1, 2, 4, 8} {
						gotRTK := rtkAt(gir, q, k, workers, nil)
						if !equalInts(gotRTK, wantRTK) {
							t.Fatalf("grouped RTK k=%d workers=%d: got %v want %v", k, workers, gotRTK, wantRTK)
						}
						gotRKR := rkrAt(gir, q, k, workers, nil)
						if !equalMatches(gotRKR, wantRKR) {
							t.Fatalf("grouped RKR k=%d workers=%d: got %+v want %+v", k, workers, gotRKR, wantRKR)
						}
					}
					// The inline scan's counters must describe a
					// consistent per-group breakdown at every width.
					var c stats.Counters
					rtkAt(gir, q, k, 1, &c)
					checkStatsInvariants(t, &c)
				}
			}
		})
	}
}

// TestGroupedVsReferencePlanted extends TestGroupedVsReference's
// families with planted datasets (plantedSets): near-tie products at
// the rounding margin's edges and 0, k − 1, k and k + 1 dominators,
// under every packed width. Both query kinds must equal the embedded
// reference and brute force at workers {1, 2, 4, 8} with the dominator
// pre-pass on and off; the k − 1 sets pin that no worker count answers
// empty before k dominators exist.
func TestGroupedVsReferencePlanted(t *testing.T) {
	pdists := []dataset.Distribution{dataset.Uniform, dataset.Clustered, dataset.AntiCorrelated, dataset.Normal}
	wdists := []dataset.Distribution{dataset.Uniform, dataset.Clustered, dataset.Exponential}
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	for i := 0; i < seeds; i++ {
		rng := rand.New(rand.NewSource(int64(8000 + i)))
		n := []int{4, 32, 256}[i%3]
		for _, ps := range plantedSets(rng, pdists[i%len(pdists)], wdists[i%len(wdists)]) {
			t.Run(fmt.Sprintf("%02d-%s-d%d-n%d", i, ps.name, len(ps.q), n), func(t *testing.T) {
				checkPlanted(t, ps, n)
				gir := NewGIR(ps.points, ps.weights, ps.rangeP, n)
				for _, k := range []int{1, plantedK} {
					if got, want := rtkAt(gir, ps.q, k, 1, nil), refReverseTopK(gir, ps.q, k); !equalInts(got, want) {
						t.Fatalf("RTK k=%d: got %v, reference %v", k, got, want)
					}
					if got, want := rkrAt(gir, ps.q, k, 1, nil), refReverseKRanks(gir, ps.q, k); !equalMatches(got, want) {
						t.Fatalf("RKR k=%d: got %+v, reference %+v", k, got, want)
					}
				}
			})
		}
	}
}

// TestGroupedStateReuse hammers one pooled GIR with interleaved query
// shapes so recycled state (Domin buffer, scratch tag, heap) crossing
// queries would be caught immediately against brute force.
func TestGroupedStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	P := dataset.GenerateProducts(rng, dataset.Clustered, 120, 4, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 80, 4)
	points := catalogSet(rng, P.Points[:30], 120)
	gir := NewGIR(points, W.Points, P.Range, 8)
	brute := NewBrute(points, W.Points)
	for iter := 0; iter < 60; iter++ {
		q := points[rng.Intn(len(points))]
		if iter%3 == 0 {
			q = make(vec.Vector, 4)
			for j := range q {
				q[j] = rng.Float64() * P.Range
			}
		}
		k := 1 + rng.Intn(12)
		if got, want := gir.ReverseKRanks(q, k, nil), brute.ReverseKRanks(q, k, nil); !equalMatches(got, want) {
			t.Fatalf("iter %d k=%d: pooled RKR diverged: got %+v want %+v", iter, k, got, want)
		}
		if got, want := gir.ReverseTopK(q, k, nil), brute.ReverseTopK(q, k, nil); !equalInts(got, want) {
			t.Fatalf("iter %d k=%d: pooled RTK diverged: got %v want %v", iter, k, got, want)
		}
	}
}

// TestGroupedCountersSane checks the grouped counter invariants on a
// duplicate-heavy dataset directly (the parallel cross-validation test
// checks them after worker merges).
func TestGroupedCountersSane(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	P := dataset.GenerateProducts(rng, dataset.Clustered, 200, 5, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Clustered, 100, 5)
	points := catalogSet(rng, P.Points[:25], 200)
	gir := NewGIR(points, W.Points, P.Range, 16)
	q := points[7]
	var c stats.Counters
	gir.ReverseKRanks(q, 10, &c)
	checkStatsInvariants(t, &c)
	if c.ApproxVisited > int64(gir.PointGroups())*int64(gir.NumWeights()) {
		t.Fatalf("ApproxVisited %d exceeds groups×weights %d — counting per point, not per group?",
			c.ApproxVisited, gir.PointGroups()*gir.NumWeights())
	}
}

// TestScanCountsExact pins the scan's counters to a per-point
// classification, not just to checkStatsInvariants' inequalities. With
// DisableDomin no dominator ever kills a group, and reverse top-k at
// k > |P| never reaches its cutoff, so every weight classifies every
// point: Case1Filtered, Case2Filtered and Refinements must equal the
// per-point Case 1/2/3 tallies of refBounds' bound sums, and
// PairwiseMults one score per weight plus one per refinement — at every
// worker count, on grids that derive each packed width from 4 to 8 and
// on duplicate-heavy data. A block of four Case-2 groups counted wrong,
// or a group counted twice, moves these totals.
func TestScanCountsExact(t *testing.T) {
	for i, n := range []int{16, 32, 64, 128, 256} {
		rng := rand.New(rand.NewSource(int64(4100 + i)))
		d := 3 + i
		P := dataset.GenerateProducts(rng, dataset.Clustered, 150, d, dataset.DefaultRange)
		W := dataset.GenerateWeights(rng, dataset.Uniform, 90, d)
		points := P.Points
		if i%2 == 0 {
			points = catalogSet(rng, points[:30], len(points))
		}
		gir := NewGIR(points, W.Points, P.Range, n)
		gir.DisableDomin = true
		low := make(vec.Vector, d) // below most of the catalog: mostly Case 2
		for j := range low {
			low[j] = P.Range * 0.1
		}
		for qi, q := range []vec.Vector{points[7], low, points[rng.Intn(len(points))]} {
			var want stats.Counters
			bnd := make([]float64, d*2*n)
			for wi := 0; wi < gir.NumWeights(); wi++ {
				fq := vec.Dot(gir.Weight(wi), q)
				refGather(gir, wi, bnd)
				want.PairwiseMults++
				for pj := 0; pj < gir.NumPoints(); pj++ {
					switch l, u := refBounds(gir, pj, bnd); {
					case u < fq:
						want.Case1Filtered++
					case l > fq:
						want.Case2Filtered++
					default:
						want.Refinements++
						want.PairwiseMults++
					}
				}
			}
			k := gir.NumPoints() + 1
			for _, workers := range []int{1, 2, 4, 8} {
				_, got, err := gir.ReverseTopKOpts(context.Background(), q, k, QueryOpts{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("n=%d (%d-bit) q%d workers=%d", n, gir.PackedBits(), qi, workers)
				if got.Case1Filtered != want.Case1Filtered || got.Case2Filtered != want.Case2Filtered ||
					got.Refinements != want.Refinements || got.PairwiseMults != want.PairwiseMults {
					t.Fatalf("%s: case1/case2/refined/mults = %d/%d/%d/%d, per-point classification %d/%d/%d/%d", name,
						got.Case1Filtered, got.Case2Filtered, got.Refinements, got.PairwiseMults,
						want.Case1Filtered, want.Case2Filtered, want.Refinements, want.PairwiseMults)
				}
				// The per-group and derived counters follow exactly too.
				if groups := int64(gir.NumWeights() * gir.PointGroups()); got.BoundSums != groups || got.ApproxVisited != groups {
					t.Fatalf("%s: BoundSums %d, ApproxVisited %d, want weights × groups = %d", name, got.BoundSums, got.ApproxVisited, groups)
				}
				if got.Filtered != got.Case1Filtered+got.Case2Filtered || got.PointsVisited != got.Refinements || got.Queries != 1 {
					t.Fatalf("%s: derived counters inconsistent: %+v", name, got)
				}
			}
		}
	}
}

// plantedSet is a dataset built around one query point q: products at
// the rounding margin's edges and a chosen number of dominators, the
// cases random data never produces.
type plantedSet struct {
	name       string
	points     []vec.Vector
	weights    []vec.Vector
	rangeP     float64
	q          vec.Vector
	dominators int // products dominating q by the margin; -1 when not pinned
}

// plantedSets builds the planted families for one seed, for queries at
// k = plantedK:
//
//   - "edge": near-ties at Nextafter(q_i, 0) in every coordinate, and
//     products at q_i − m·(1 ± 2⁻²⁰) in every coordinate, m the rounding
//     margin, on both sides of the dominance test (after rounding they
//     may land on either side, so the count is not pinned);
//   - "dom0", "dom4", "dom5", "dom6": exactly 0, k − 1, k and k + 1
//     dominators, plus Nextafter near-ties, which never clear the margin.
//
// The random products that dominate q are dropped, so the planted ones
// are the only dominators.
func plantedSets(rng *rand.Rand, pd, wd dataset.Distribution) []plantedSet {
	d := 2 + rng.Intn(6)
	nP, nW := 40+rng.Intn(100), 30+rng.Intn(90)
	P := dataset.GenerateProducts(rng, pd, nP, d, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, wd, nW, d)
	q := make(vec.Vector, d)
	for i := range q {
		q[i] = (0.3 + 0.4*rng.Float64()) * P.Range
	}
	var base []vec.Vector
	for _, p := range P.Points {
		if !vec.Dominates(p, q) {
			base = append(base, p)
		}
	}
	m := dominanceMargin(q)
	shift := func(f func(qi float64) float64) vec.Vector {
		p := make(vec.Vector, d)
		for i, x := range q {
			p[i] = f(x)
		}
		return p
	}
	nextTie := func(x float64) float64 { return math.Nextafter(x, 0) }
	set := func(name string, dominators int, extra ...vec.Vector) plantedSet {
		pts := append(append([]vec.Vector(nil), base...), extra...)
		rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		return plantedSet{name: name, points: pts, weights: W.Points, rangeP: P.Range, q: q, dominators: dominators}
	}
	sets := []plantedSet{set("edge", -1,
		shift(nextTie), shift(nextTie),
		shift(func(x float64) float64 { return x - m*(1+0x1p-20) }),
		shift(func(x float64) float64 { return x - m*(1-0x1p-20) }),
		shift(func(x float64) float64 { return x - m*(1+0x1p-20) }),
	)}
	for _, c := range []int{0, plantedK - 1, plantedK, plantedK + 1} {
		extra := []vec.Vector{shift(nextTie), shift(nextTie)}
		for j := 0; j < c; j++ {
			extra = append(extra, shift(func(x float64) float64 { return x * (0.2 + 0.6*rng.Float64()) }))
		}
		sets = append(sets, set(fmt.Sprintf("dom%d", c), c, extra...))
	}
	return sets
}

// plantedK is the k the planted dominator counts are chosen around.
const plantedK = 5

// checkPlanted runs both query kinds on a planted set at workers
// {1, 2, 4, 8}, with the dominator pre-pass on and off, against brute
// force, and pins the pre-pass's dominator count where the set fixes it.
func checkPlanted(t *testing.T, ps plantedSet, n int) {
	t.Helper()
	brute := NewBrute(ps.points, ps.weights)
	gir := NewGIR(ps.points, ps.weights, ps.rangeP, n)
	for _, k := range []int{1, plantedK, len(ps.weights)} {
		wantRTK := brute.ReverseTopK(ps.q, k, nil)
		wantRKR := brute.ReverseKRanks(ps.q, k, nil)
		for _, disable := range []bool{false, true} {
			gir.DisableDomin = disable
			for _, workers := range []int{1, 2, 4, 8} {
				var c stats.Counters
				if got := rtkAt(gir, ps.q, k, workers, &c); !equalInts(got, wantRTK) {
					t.Fatalf("RTK k=%d workers=%d DisableDomin=%v: got %v want %v", k, workers, disable, got, wantRTK)
				}
				checkStatsInvariants(t, &c)
				if want := int64(min(ps.dominators, k)); ps.dominators >= 0 && !disable && c.Dominators != want {
					t.Fatalf("RTK k=%d workers=%d: %d dominators, want %d", k, workers, c.Dominators, want)
				}
				c.Reset()
				if got := rkrAt(gir, ps.q, k, workers, &c); !equalMatches(got, wantRKR) {
					t.Fatalf("RKR k=%d workers=%d DisableDomin=%v: got %+v want %+v", k, workers, disable, got, wantRKR)
				}
				checkStatsInvariants(t, &c)
				if ps.dominators >= 0 && !disable && c.Dominators != int64(ps.dominators) {
					t.Fatalf("RKR k=%d workers=%d: %d dominators, want %d", k, workers, c.Dominators, ps.dominators)
				}
			}
		}
	}
}
