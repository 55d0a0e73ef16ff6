package algo

// Tests for the persist layer's constructors and accessors: a GIR
// reassembled from its own precomputed parts (the mmap load path) and
// the copy-on-write derivation helpers must be indistinguishable from a
// freshly built GIR on every query.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridrank/internal/grid"
	"gridrank/internal/vec"
)

// partsData builds deterministic uniform point/weight sets.
func partsData(seed int64, np, nw, d int, rangeP float64) ([]vec.Vector, []vec.Vector) {
	rng := rand.New(rand.NewSource(seed))
	P := make([]vec.Vector, np)
	for i := range P {
		v := make(vec.Vector, d)
		for j := range v {
			v[j] = rng.Float64() * rangeP
		}
		P[i] = v
	}
	W := make([]vec.Vector, nw)
	for i := range W {
		v := make(vec.Vector, d)
		sum := 0.0
		for j := range v {
			v[j] = rng.Float64()
			sum += v[j]
		}
		for j := range v {
			v[j] /= sum
		}
		W[i] = v
	}
	return P, W
}

// answersEqual compares both query families on a handful of products.
func answersEqual(t *testing.T, want, got *GIR, label string) {
	t.Helper()
	for qi := 0; qi < want.pm.Len(); qi += want.pm.Len()/4 + 1 {
		q := want.pm.Row(qi)
		w := fmt.Sprintf("%v/%+v", want.ReverseTopK(q, 5, nil), want.ReverseKRanks(q, 5, nil))
		g := fmt.Sprintf("%v/%+v", got.ReverseTopK(q, 5, nil), got.ReverseKRanks(q, 5, nil))
		if w != g {
			t.Fatalf("%s: answers diverge at q=%d:\n want %s\n  got %s", label, qi, w, g)
		}
	}
}

// TestGIRFromPartsEquivalence reassembles a GIR from the artifacts a
// built one exposes — exactly what the GRI3 readers do — and checks the
// result answers identically. Parts whose point grouping carries no
// packed store, or one at another width (a legacy file), are re-packed
// at the grid's derived width; parts already at that width are adopted
// without copying.
func TestGIRFromPartsEquivalence(t *testing.T) {
	P, W := partsData(91, 160, 60, 3, 50)
	base := NewGIR(P, W, 50, 8)
	if base.PackedBits() != PackedWidth(8) {
		t.Fatalf("fresh build packed at %d bits, want %d", base.PackedBits(), PackedWidth(8))
	}
	wrongWidth := grid.NewGrouped(base.PointCells())
	wrongWidth.Pack(7)
	for name, pg := range map[string]*grid.GroupedIndex{
		"adopted":     base.PointGrouping(),
		"unpacked":    grid.NewGrouped(base.PointCells()),
		"other width": wrongWidth,
	} {
		got := NewGIRFromParts(GIRParts{
			PM: base.pm, WM: base.wm,
			Grid: base.Grid(),
			PA:   base.PointCells(), WA: base.WeightCells(),
			PG: pg, WG: base.WeightGrouping(),
		})
		if got.PointGroups() != base.PointGroups() || got.WeightGroups() != base.WeightGroups() {
			t.Fatalf("%s: groups %d/%d, want %d/%d", name,
				got.PointGroups(), got.WeightGroups(), base.PointGroups(), base.WeightGroups())
		}
		if got.PackedBits() != base.PackedBits() || !got.pk.Equal(base.pk) {
			t.Fatalf("%s: packed store at %d bits differs from the fresh build's", name, got.PackedBits())
		}
		if name == "adopted" && got.pk != base.pk {
			t.Fatalf("%s: a packed store at the derived width was copied", name)
		}
		answersEqual(t, base, got, name)
	}
}

// TestGIRCanonicalWeightRange pins the derivation the persist layer
// depends on for byte-identical re-saves: one ulp above the largest
// component, so the maximum itself maps strictly inside the last cell.
func TestGIRCanonicalWeightRange(t *testing.T) {
	_, W := partsData(92, 10, 40, 4, 1)
	wm := vec.NewMatrix(W)
	maxC := 0.0
	for _, w := range W {
		for _, c := range w {
			maxC = math.Max(maxC, c)
		}
	}
	if got := CanonicalWeightRange(wm); got != math.Nextafter(maxC, math.Inf(1)) {
		t.Fatalf("CanonicalWeightRange = %v, max component %v", got, maxC)
	}
}

// TestGIRMutateDerivations checks each copy-on-write derivation against
// a from-scratch build over the same logical data, and the range
// accessors the derivations are gated on.
func TestGIRMutateDerivations(t *testing.T) {
	P, W := partsData(93, 120, 50, 3, 50)
	base := NewGIR(P, W, 50, 8)
	if base.PointRange() != 50 {
		t.Fatalf("PointRange = %v", base.PointRange())
	}
	if want := CanonicalWeightRange(base.wm); base.WeightRange() != want {
		t.Fatalf("WeightRange = %v, want %v", base.WeightRange(), want)
	}

	// Append a point.
	addP := append(append([]vec.Vector(nil), P...), vec.Vector{25, 10, 40})
	got := base.WithAppendedPoint(vec.NewMatrix(addP))
	want := NewGIR(addP, W, 50, 8)
	answersEqual(t, want, got, "appended point")

	// Remove a point.
	delP := append(append([]vec.Vector(nil), P[:7]...), P[8:]...)
	got = base.WithRemovedPoint(vec.NewMatrix(delP), 7)
	want = NewGIR(delP, W, 50, 8)
	answersEqual(t, want, got, "removed point")

	// Append a weight (inside the current weight range, so the grid is
	// reusable and the derivation legal).
	nw := make(vec.Vector, 3)
	copy(nw, W[0])
	addW := append(append([]vec.Vector(nil), W...), nw)
	got = base.WithAppendedWeight(vec.NewMatrix(addW))
	want = newGIR(vec.NewMatrix(P), vec.NewMatrix(addW), base.Grid())
	answersEqual(t, want, got, "appended weight")

	// Remove a weight. The canonical range may shrink, so compare
	// against a build pinned to the original grid (what the derivation
	// promises), not a canonical rebuild.
	delW := append(append([]vec.Vector(nil), W[:3]...), W[4:]...)
	got = base.WithRemovedWeight(vec.NewMatrix(delW), 3)
	want = newGIR(vec.NewMatrix(P), vec.NewMatrix(delW), base.Grid())
	answersEqual(t, want, got, "removed weight")
}
