package gridrank

// Coverage for the packed layout's public surface: the packed width
// every grid size derives and the Layout accessor that reports it,
// public-level equivalence of the packed scan with exact float64 ranks
// across grid sizes (the algo-level sweep lives in
// internal/algo/gir_reference_test.go), the width across mutations, and
// the persistence of packed rows (round trips, v1 back-compat,
// corruption rejection).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"gridrank/internal/algo"
	"gridrank/internal/dataset"
)

// derivedWidth is the packed width rule spelled out independently of
// algo.PackedWidth: the smallest b in [4, 8] with 2^b >= n.
func derivedWidth(n int) int {
	for b := 4; b < 8; b++ {
		if 1<<b >= n {
			return b
		}
	}
	return 8
}

// TestPackedBitsValidation pins that the packed width is derived, never
// configured: every grid size reports the smallest width in [4, 8] that
// encodes its partitions — fresh builds, Theorem 1-sized grids and the
// default alike.
func TestPackedBitsValidation(t *testing.T) {
	P, err := GenerateProducts(61, Uniform, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(62, Uniform, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, opts *Options, n int) {
		t.Helper()
		ix, err := New(P, W, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.GridPartitions() != n {
			t.Fatalf("%s: %d partitions, want %d", name, ix.GridPartitions(), n)
		}
		want := Layout{Packed: true, BitsPerDim: derivedWidth(n), RowBlock: algo.RowBlock}
		if lay := ix.Layout(); lay != want {
			t.Errorf("%s: layout %+v, want %+v", name, lay, want)
		}
	}
	for _, n := range []int{1, 2, 15, 16, 17, 32, 33, 64, 65, 100, 128, 129, 255, 256} {
		check(fmt.Sprintf("n=%d", n), &Options{GridPartitions: n}, n)
	}
	check("default", nil, algo.DefaultPartitions)
	auto, err := RequiredPartitions(4, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	check("TargetFiltering", &Options{TargetFiltering: 0.99}, auto)
}

// exactAnswers derives both reverse answers for q from ix.Rank, the
// exact float64 rank over the raw product rows — no grid, no packed
// cells.
func exactAnswers(t *testing.T, ix *Index, q Vector, k int) ([]int, []Match) {
	t.Helper()
	var rtk []int
	var all []Match
	for wi, w := range ix.Preferences() {
		r, err := ix.Rank(w, q)
		if err != nil {
			t.Fatal(err)
		}
		if r < k {
			rtk = append(rtk, wi)
		}
		all = append(all, Match{WeightIndex: wi, Rank: r})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Rank != all[b].Rank {
			return all[a].Rank < all[b].Rank
		}
		return all[a].WeightIndex < all[b].WeightIndex
	})
	return rtk, all[:min(k, len(all))]
}

// TestPackedIndexMatchesUnpacked is the public-API face of the packed
// equivalence gate: at grid sizes deriving every packed width, the
// packed scan must serialize the answers that exact, unpacked float64
// ranks (Index.Rank over the raw product rows) imply, at every worker
// count.
func TestPackedIndexMatchesUnpacked(t *testing.T) {
	bg := context.Background()
	for _, n := range []int{16, 32, 64, 128, 256} {
		ix, P := testIndexWithOpts(t, &Options{GridPartitions: n})
		for _, q := range []Vector{P[0], P[211], {1, 1, 1, 1, 1}} {
			for _, k := range []int{1, 10, 120} {
				wantRTK, wantRKR := exactAnswers(t, ix, q, k)
				wantR, wantK := fmt.Sprintf("%v", wantRTK), fmt.Sprintf("%+v", wantRKR)
				for _, workers := range []int{1, 3, 8} {
					gotRTK, err := ix.ReverseTopKCtx(bg, q, k, WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					gotRKR, err := ix.ReverseKRanksCtx(bg, q, k, WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprintf("%v", gotRTK) != wantR || fmt.Sprintf("%+v", gotRKR) != wantK {
						t.Fatalf("n=%d workers=%d k=%d: packed answers differ from exact ranks", n, workers, k)
					}
				}
			}
		}
	}
}

// TestMutationsPreserveLayout pins the rebuild policy: every mutation
// path — incremental derivation, single-element rebuild, batch rebuild
// — keeps scanning at the width the grid size derives, and the mutated
// index keeps answering identically to a fresh build.
func TestMutationsPreserveLayout(t *testing.T) {
	for _, n := range []int{16, 32, 256} {
		ix, P := testIndexWithOpts(t, &Options{GridPartitions: n})
		if _, err := ix.InsertProduct(Vector{0.5, 0.4, 0.3, 0.2, 0.1}); err != nil {
			t.Fatal(err)
		}
		if err := ix.DeleteProduct(0); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.InsertPreference(Vector{0.2, 0.2, 0.2, 0.2, 0.2}); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.InsertProducts([]Vector{{1, 2, 3, 4, 5}, {5, 4, 3, 2, 1}}); err != nil {
			t.Fatal(err)
		}
		if err := ix.DeletePreferences([]int{3, 7}); err != nil {
			t.Fatal(err)
		}
		if lay := ix.Layout(); !lay.Packed || lay.BitsPerDim != derivedWidth(n) {
			t.Fatalf("n=%d: layout after mutations = %+v, want packed %d-bit", n, lay, derivedWidth(n))
		}
		fresh, err := New(ix.Products(), ix.Preferences(), &Options{GridPartitions: n})
		if err != nil {
			t.Fatal(err)
		}
		q := P[50]
		want, err := fresh.ReverseKRanksCtx(context.Background(), q, 9)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.ReverseKRanksCtx(context.Background(), q, 9)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("n=%d: mutated index answers %+v, fresh build %+v", n, got, want)
		}
	}
}

// TestMutationWrappersMatchCtxAPI covers the mutation surface's two
// forms: every context-free mutator is a thin wrapper over its Ctx
// form, so driving two copies of the same index through both forms must
// leave byte-identical indexes.
func TestMutationWrappersMatchCtxAPI(t *testing.T) {
	a, _ := testIndexWithOpts(t, nil)
	b, _ := testIndexWithOpts(t, nil)
	bg := context.Background()

	step := func(name string, plain, ctx error) {
		t.Helper()
		if plain != nil || ctx != nil {
			t.Fatalf("%s: plain err %v, ctx err %v", name, plain, ctx)
		}
	}
	p := Vector{0.9, 0.8, 0.7, 0.6, 0.5}
	w := Vector{0.1, 0.2, 0.3, 0.2, 0.2}
	_, errA := a.InsertProduct(p)
	_, errB := b.InsertProductCtx(bg, p)
	step("InsertProduct", errA, errB)
	step("DeleteProduct", a.DeleteProduct(2), b.DeleteProductCtx(bg, 2))
	_, errA = a.InsertPreference(w)
	_, errB = b.InsertPreferenceCtx(bg, w)
	step("InsertPreference", errA, errB)
	step("DeletePreference", a.DeletePreference(5), b.DeletePreferenceCtx(bg, 5))
	_, errA = a.InsertProducts([]Vector{p, p})
	_, errB = b.InsertProductsCtx(bg, []Vector{p, p})
	step("InsertProducts", errA, errB)
	step("DeleteProducts", a.DeleteProducts([]int{1, 3}), b.DeleteProductsCtx(bg, []int{1, 3}))
	_, errA = a.InsertPreferences([]Vector{w})
	_, errB = b.InsertPreferencesCtx(bg, []Vector{w})
	step("InsertPreferences", errA, errB)
	step("DeletePreferences", a.DeletePreferences([]int{0}), b.DeletePreferencesCtx(bg, []int{0}))

	var bufA, bufB bytes.Buffer
	if _, err := a.WriteTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("plain and Ctx mutation sequences serialized different indexes")
	}
	// A cancelled context aborts before any epoch is built.
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	epoch := b.Epoch()
	if _, err := b.InsertProductCtx(cancelled, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled InsertProductCtx: %v", err)
	}
	if b.Epoch() != epoch {
		t.Fatal("cancelled mutation advanced the epoch")
	}
}

// TestIndexPackedRoundTrip proves the GRI3 format persists the packed
// rows: at grid sizes deriving several widths, an index survives
// WriteTo/ReadIndex with its layout and answers intact, and the stored
// packed-rows section is verified on load.
func TestIndexPackedRoundTrip(t *testing.T) {
	for _, n := range []int{16, 32, 128} {
		ix, P := testIndexWithOpts(t, &Options{GridPartitions: n})
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		raw := append([]byte(nil), buf.Bytes()...)
		got, err := ReadIndex(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if lay := got.Layout(); lay != ix.Layout() || lay.BitsPerDim != derivedWidth(n) {
			t.Fatalf("n=%d: loaded layout = %+v, want packed %d-bit", n, lay, derivedWidth(n))
		}
		q := P[7]
		want, err := ix.ReverseKRanksCtx(context.Background(), q, 8)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.ReverseKRanksCtx(context.Background(), q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", have) != fmt.Sprintf("%+v", want) {
			t.Fatalf("n=%d: loaded index answers differ: %+v vs %+v", n, have, want)
		}

		// Corrupting any single byte of the packed-rows section (the last
		// one) must be caught, and so must truncating it away.
		h, err := parseGRI3Header(raw[:gri3HeaderLen])
		if err != nil {
			t.Fatal(err)
		}
		secs, _ := h.layout()
		off := int(secs[secPackedRows-1].offset)
		for _, at := range []int{off, off + 9, len(raw) - 1} {
			bad := append([]byte(nil), raw...)
			bad[at] ^= 0x40
			if _, err := ReadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrBadIndexFile) {
				t.Errorf("n=%d: flipped packed byte at %d: err = %v, want ErrBadIndexFile", n, at, err)
			}
		}
		if _, err := ReadIndex(bytes.NewReader(raw[:off])); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("n=%d: missing packed section: err = %v, want ErrBadIndexFile", n, err)
		}
	}
}

// TestIndexLoadsV1Format pins backward compatibility: a version-1 file
// (no layout field, no packed section) still loads — scanning packed
// rows at the derived width like any index — and re-saves in the
// current format, byte-identical to the fresh index's own
// serialization. The v1 stream is hand-constructed
// the way the original writer produced it: magic+n+rangeP, then the two
// data set blocks.
func TestIndexLoadsV1Format(t *testing.T) {
	ix, P := testIndexWithOpts(t, nil)
	var v1 bytes.Buffer
	hdr := make([]byte, 4+4+8)
	binary.LittleEndian.PutUint32(hdr[0:], indexMagicV1)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ix.GridPartitions()))
	rangeP := computeRangeP(ix.Products())
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(rangeP))
	v1.Write(hdr)
	if err := dataset.WriteBinary(&v1, &dataset.Dataset{Dim: ix.Dim(), Range: rangeP, Points: ix.Products()}); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteBinary(&v1, &dataset.Dataset{Dim: ix.Dim(), Range: 1, Points: ix.Preferences()}); err != nil {
		t.Fatal(err)
	}

	got, err := ReadIndex(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("v1 file rejected: %v", err)
	}
	if lay := got.Layout(); lay != ix.Layout() {
		t.Fatalf("v1 file loaded at layout %+v, want the derived %+v", lay, ix.Layout())
	}
	if got.Format() != "GRI1" || ix.Format() != "GRI3" {
		t.Fatalf("formats: loaded %q (want GRI1), fresh %q (want GRI3)", got.Format(), ix.Format())
	}
	if got.NumProducts() != ix.NumProducts() || got.GridPartitions() != ix.GridPartitions() {
		t.Fatal("v1 load lost metadata")
	}
	q := P[3]
	want, err := ix.ReverseKRanksCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.ReverseKRanksCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", have) != fmt.Sprintf("%+v", want) {
		t.Fatalf("v1-loaded index answers differ: %+v vs %+v", have, want)
	}
	// Re-saving migrates to the current format, byte-identical to the
	// fresh index's own serialization.
	var fresh, resaved bytes.Buffer
	if _, err := ix.WriteTo(&fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := got.WriteTo(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), fresh.Bytes()) {
		t.Fatal("re-saved v1 index is not byte-identical to the fresh GRI3 stream")
	}
}
