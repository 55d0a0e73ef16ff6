package algo

// Copy-on-write derivation of a GIR instance under point/weight
// insertion and deletion. Each With* method returns a NEW *GIR for the
// mutated data set and leaves the receiver fully usable: the two
// instances share everything the mutation did not touch — the grid
// table always, and the whole untouched side (a point mutation reuses
// wa/wg as-is, a weight mutation reuses pa/pg). The derived GIR starts
// with an empty query-state pool, so pooled Domin buffers and group
// counters are always sized for their own epoch. The packed row store
// travels with the point grouping: its derivations re-encode only the
// rows they touch, so a derived GIR scans at its parent's width.
//
// The caller owns the range policy: these methods require the new
// vector to fall inside the existing grid ranges (an out-of-range
// insert would silently clamp into the last cell and break the upper
// bound). gridrank.Index checks WeightRange/PointRange first and falls
// back to a full rebuild when the range must grow or shrink.

import (
	"gridrank/internal/grid"
	"gridrank/internal/vec"
)

// PointRange returns the grid's point-axis range r_p, or 0 when the
// bounder does not expose one (adaptive grids) — callers must then
// rebuild instead of deriving.
func (gr *GIR) PointRange() float64 {
	if g, ok := gr.g.(*grid.Grid); ok {
		return g.RangeP()
	}
	return 0
}

// WeightRange returns the grid's weight-axis range r_w, or 0 when the
// bounder does not expose one.
func (gr *GIR) WeightRange() float64 {
	if g, ok := gr.g.(*grid.Grid); ok {
		return g.RangeW()
	}
	return 0
}

// WithAppendedPoint derives a GIR over pm, which must be the current
// point matrix plus one appended row, every attribute inside [0,
// PointRange()).
func (gr *GIR) WithAppendedPoint(pm *vec.Matrix) *GIR {
	pa := gr.pa.WithAppendedPoint(pm.Row(pm.Len() - 1))
	pg := gr.pg.WithAppended(pa)
	return &GIR{
		pm: pm, wm: gr.wm, DisableDomin: gr.DisableDomin,
		g: gr.g, pa: pa, wa: gr.wa, pg: pg, wg: gr.wg, pk: pg.Packed(),
	}
}

// WithRemovedPoint derives a GIR over pm, the current point matrix
// without row i.
func (gr *GIR) WithRemovedPoint(pm *vec.Matrix, i int) *GIR {
	pa := gr.pa.WithRemoved(i)
	pg := gr.pg.WithRemoved(pa, i)
	return &GIR{
		pm: pm, wm: gr.wm, DisableDomin: gr.DisableDomin,
		g: gr.g, pa: pa, wa: gr.wa, pg: pg, wg: gr.wg, pk: pg.Packed(),
	}
}

// WithAppendedWeight derives a GIR over wm, the current weight matrix
// plus one appended row, every component inside [0, WeightRange()).
func (gr *GIR) WithAppendedWeight(wm *vec.Matrix) *GIR {
	wa := gr.wa.WithAppendedWeight(wm.Row(wm.Len() - 1))
	return &GIR{
		pm: gr.pm, wm: wm, DisableDomin: gr.DisableDomin,
		g: gr.g, pa: gr.pa, wa: wa, pg: gr.pg, wg: gr.wg.WithAppended(wa), pk: gr.pk,
	}
}

// WithRemovedWeight derives a GIR over wm, the current weight matrix
// without row i.
func (gr *GIR) WithRemovedWeight(wm *vec.Matrix, i int) *GIR {
	wa := gr.wa.WithRemoved(i)
	return &GIR{
		pm: gr.pm, wm: wm, DisableDomin: gr.DisableDomin,
		g: gr.g, pa: gr.pa, wa: wa, pg: gr.pg, wg: gr.wg.WithRemoved(wa, i), pk: gr.pk,
	}
}
