package gridrank

import (
	"context"
	"errors"
	"math"
	"testing"
)

// figure1 is the paper's running example.
var (
	phones = []Vector{
		{0.6, 0.7}, {0.2, 0.3}, {0.1, 0.6}, {0.7, 0.5}, {0.8, 0.2},
	}
	users = []Vector{
		{0.8, 0.2}, {0.3, 0.7}, {0.9, 0.1}, // Tom, Jerry, Spike
	}
)

func mustIndex(t *testing.T, opts *Options) *Index {
	t.Helper()
	ix, err := New(phones, users, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewValidation(t *testing.T) {
	// 4-d data, where a 0.999999 filtering target sizes the grid at 2048
	// partitions, past the 256 a cell byte can address.
	p4 := []Vector{{0.1, 0.2, 0.3, 0.4}, {0.4, 0.3, 0.2, 0.1}}
	w4 := []Vector{{0.25, 0.25, 0.25, 0.25}}
	cases := []struct {
		name  string
		p, w  []Vector
		opts  *Options
		error bool
	}{
		{"ok", phones, users, nil, false},
		{"empty products", nil, users, nil, true},
		{"empty preferences", phones, nil, nil, true},
		{"zero-dim", []Vector{{}}, users, nil, true},
		{"ragged products", []Vector{{1, 2}, {1}}, users, nil, true},
		{"ragged preferences", phones, []Vector{{0.5, 0.5}, {1}}, nil, true},
		{"negative attribute", []Vector{{-1, 2}}, users, nil, true},
		{"NaN attribute", []Vector{{math.NaN(), 2}}, users, nil, true},
		{"Inf attribute", []Vector{{math.Inf(1), 2}}, users, nil, true},
		{"negative weight", phones, []Vector{{-0.5, 1.5}}, nil, true},
		{"non-unit weight sum", phones, []Vector{{0.5, 0.6}}, nil, true},
		{"bad partitions", phones, users, &Options{GridPartitions: -1}, true},
		{"bad target", phones, users, &Options{TargetFiltering: 1.5}, true},
		{"auto target", phones, users, &Options{TargetFiltering: 0.99}, false},
		{"max partitions", p4, w4, &Options{GridPartitions: 256}, false},
		{"partitions above the cap", p4, w4, &Options{GridPartitions: 257}, true},
		{"target sized above the cap", p4, w4, &Options{TargetFiltering: 0.999999}, true},
		{"all-zero products", []Vector{{0, 0}}, users, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.p, c.w, c.opts)
			if c.error && err == nil {
				t.Error("expected error")
			}
			if !c.error && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
}

func TestReverseTopKMatchesFigure1(t *testing.T) {
	ix := mustIndex(t, nil)
	want := [][]int{nil, {0, 1, 2}, {0, 2}, nil, {1}}
	for qi, q := range phones {
		got, err := ix.ReverseTopKCtx(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[qi]) {
			t.Fatalf("RT-2(p%d) = %v, want %v", qi+1, got, want[qi])
		}
		for i := range got {
			if got[i] != want[qi][i] {
				t.Fatalf("RT-2(p%d) = %v, want %v", qi+1, got, want[qi])
			}
		}
	}
}

func TestReverseKRanksMatchesFigure1(t *testing.T) {
	ix := mustIndex(t, nil)
	want := []Match{
		{WeightIndex: 0, Rank: 2},
		{WeightIndex: 1, Rank: 0},
		{WeightIndex: 0, Rank: 0},
		{WeightIndex: 0, Rank: 3},
		{WeightIndex: 1, Rank: 1},
	}
	for qi, q := range phones {
		got, err := ix.ReverseKRanksCtx(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want[qi] {
			t.Errorf("R1-R(p%d) = %+v, want %+v", qi+1, got, want[qi])
		}
	}
}

func TestQueryValidation(t *testing.T) {
	ix := mustIndex(t, nil)
	if _, err := ix.ReverseTopKCtx(context.Background(), Vector{0.5}, 2); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("wrong-dim query: %v", err)
	}
	if _, err := ix.ReverseTopKCtx(context.Background(), phones[0], 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := ix.ReverseKRanksCtx(context.Background(), Vector{0.5, math.NaN()}, 2); err == nil {
		t.Error("NaN query accepted")
	}
	if _, err := ix.TopK(Vector{0.5}, 2); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("TopK wrong dim: %v", err)
	}
	if _, err := ix.TopK(users[0], -1); !errors.Is(err, ErrBadK) {
		t.Errorf("TopK bad k: %v", err)
	}
	if _, err := ix.Rank(Vector{1}, phones[0]); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Rank wrong dim: %v", err)
	}
}

func TestTopKAndRank(t *testing.T) {
	ix := mustIndex(t, nil)
	got, err := ix.TopK(users[0], 2) // Tom: p3 then p2
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Index != 2 || got[1].Index != 1 {
		t.Errorf("Tom's top-2 = %+v", got)
	}
	if math.Abs(got[0].Score-0.2) > 1e-12 {
		t.Errorf("p3 score for Tom = %v, want 0.2", got[0].Score)
	}
	r, err := ix.Rank(users[0], phones[0]) // p1 is Tom's 3rd: 2 better
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 {
		t.Errorf("Rank = %d, want 2", r)
	}
}

func TestStatsReported(t *testing.T) {
	P, err := GenerateProducts(1, Uniform, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(2, Uniform, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	_, err = ix.ReverseKRanksCtx(context.Background(), P[0], 10, WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundSums == 0 || st.Filtered == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.FilterRate() <= 0.5 {
		t.Errorf("filter rate %v suspiciously low", st.FilterRate())
	}
	if (Stats{}).FilterRate() != 0 {
		t.Error("zero stats should report rate 0")
	}
}

func TestAutoPartitionSizing(t *testing.T) {
	P, err := GenerateProducts(3, Uniform, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(4, Uniform, 50, 20)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{TargetFiltering: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 1's worked example: d=20, ε=1% → n=32.
	if ix.GridPartitions() != 32 {
		t.Errorf("auto n = %d, want 32", ix.GridPartitions())
	}
	// The boundary table is ~8K; the column-transposed scan copies triple
	// it. Still negligible (< 32 KiB).
	if ix.GridMemoryBytes() > 32<<10 {
		t.Errorf("grid memory %d bytes, want < 32K", ix.GridMemoryBytes())
	}
}

func TestRequiredPartitions(t *testing.T) {
	n, err := RequiredPartitions(20, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if n != 32 {
		t.Errorf("RequiredPartitions(20, 0.99) = %d, want 32", n)
	}
	if _, err := RequiredPartitions(20, 0); err == nil {
		t.Error("target 0 should error")
	}
	if _, err := RequiredPartitions(20, 1); err == nil {
		t.Error("target 1 should error")
	}
}

func TestAccessors(t *testing.T) {
	ix := mustIndex(t, &Options{GridPartitions: 8})
	if ix.Dim() != 2 || ix.NumProducts() != 5 || ix.NumPreferences() != 3 {
		t.Errorf("accessors wrong: %d %d %d", ix.Dim(), ix.NumProducts(), ix.NumPreferences())
	}
	if ix.GridPartitions() != 8 {
		t.Errorf("GridPartitions = %d, want 8", ix.GridPartitions())
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := GenerateProducts(1, "XX", 10, 2); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := GenerateProducts(1, Uniform, 0, 2); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GenerateProducts(1, Uniform, 10, 0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := GeneratePreferences(1, "XX", 10, 2); err == nil {
		t.Error("unknown preference distribution accepted")
	}
	if _, err := GeneratePreferences(1, AntiCorrelated, 10, 2); err == nil {
		t.Error("AC preferences are not defined and must error")
	}
	// The fixed-d simulators ignore d.
	P, err := GenerateProducts(1, House, 50, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(P) != 50 || len(P[0]) != 6 {
		t.Errorf("House shape: %d × %d", len(P), len(P[0]))
	}
}

func TestMonoReverseTopKPublic(t *testing.T) {
	// Figure 1 phones: for which preference mixes does p2 make the top-2?
	// p2 is in everyone's top-2 (Figure 1b), and indeed for every λ.
	ivs, err := MonoReverseTopK(phones, phones[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 || ivs[0].Lo != 0 || ivs[0].Hi != 1 {
		t.Fatalf("p2 should qualify for all λ: %v", ivs)
	}
	// p1 is in nobody's top-2, but the monochromatic answer covers ALL
	// preferences, not just the three users: verify any reported region
	// against the definition, and that Tom/Jerry/Spike's λ (0.8, 0.3,
	// 0.9) are excluded.
	ivs, err = MonoReverseTopK(phones, phones[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, lam := range []float64{0.8, 0.3, 0.9} {
		for _, iv := range ivs {
			if lam >= iv.Lo && lam <= iv.Hi {
				t.Errorf("λ=%v should not qualify for p1 (Figure 1b)", lam)
			}
		}
	}
	if _, err := MonoReverseTopK([]Vector{{1, 2, 3}}, Vector{1, 2, 3}, 1); err == nil {
		t.Error("3-d data must be rejected")
	}
}

func TestAggregateReverseRankPublic(t *testing.T) {
	P, err := GenerateProducts(41, Uniform, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(42, Uniform, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, nil)
	if err != nil {
		t.Fatal(err)
	}
	bundle := []Vector{P[1], P[2], P[3]}
	got, err := ix.AggregateReverseRank(bundle, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d matches", len(got))
	}
	// Verify the best match's aggregate by direct recount.
	best := got[0]
	total := 0
	for _, q := range bundle {
		r, err := ix.Rank(W[best.WeightIndex], q)
		if err != nil {
			t.Fatal(err)
		}
		total += r
	}
	if total != best.AggRank {
		t.Errorf("aggregate %d but recount %d", best.AggRank, total)
	}
	if _, err := ix.AggregateReverseRank(nil, 4); err == nil {
		t.Error("empty bundle accepted")
	}
	if _, err := ix.AggregateReverseRank([]Vector{{1}}, 4); err == nil {
		t.Error("wrong-dimension bundle accepted")
	}
	if _, err := ix.AggregateReverseRank(bundle, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// End-to-end: generated data flows through the index and RKR answers are
// consistent with per-preference Rank.
func TestEndToEndConsistency(t *testing.T) {
	P, err := GenerateProducts(7, Dianping, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(8, Dianping, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := P[17]
	matches, err := ix.ReverseKRanksCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("got %d matches", len(matches))
	}
	for _, m := range matches {
		r, err := ix.Rank(W[m.WeightIndex], q)
		if err != nil {
			t.Fatal(err)
		}
		if r != m.Rank {
			t.Errorf("match %+v but Rank says %d", m, r)
		}
	}
	// RTK with k = best rank + 1 must include the best RKR match.
	rtk, err := ix.ReverseTopKCtx(context.Background(), q, matches[0].Rank+1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, wi := range rtk {
		if wi == matches[0].WeightIndex {
			found = true
		}
	}
	if !found {
		t.Errorf("RTK(k=%d) = %v misses best RKR match %d",
			matches[0].Rank+1, rtk, matches[0].WeightIndex)
	}
}
