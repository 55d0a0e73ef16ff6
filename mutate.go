package gridrank

// Dynamic updates. The index mutates through copy-on-write epoch
// snapshots: a mutator builds the next epoch — matrices, approximate
// cells, groupings, GIR — from the current one under ix.mu, then
// publishes it with a single atomic store. Queries load the epoch
// pointer once per call and never take a lock, so readers are
// wait-free, in-flight queries keep their snapshot until they finish,
// and every answer is consistent with exactly one epoch.
//
// Single-element operations derive the next epoch incrementally
// (internal/vec, internal/grid, internal/algo With* methods): amortized
// O(|set| + groups·d) flat copies instead of the O(|P|·d + |W|·d)
// re-approximation plus (n+1)² table a full construction pays. The
// batch operations rebuild once per call, amortizing the construction
// over the whole batch.
//
// Range policy. The grid's point range must always equal what a fresh
// New over the current data would choose, because rangeP is persisted
// and Save of a mutated index is defined to be byte-identical to Save
// of a fresh build (see persist.go). Every point mutation therefore
// recomputes computeRangeP over the surviving rows — a sequential
// O(|P|·d) scan, the same order as the copies the derivation performs —
// and falls back to a full rebuild when the range changes. The weight
// range is not persisted; an insert whose component would fall outside
// the current weight axis forces a rebuild (clamping it into the last
// cell would break the upper bound), while deletes keep the existing
// axis even when a fresh build would shrink it — a wider range is still
// a valid bounder, so answers stay exact.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gridrank/internal/algo"
	"gridrank/internal/answers"
	"gridrank/internal/flight"
	"gridrank/internal/vec"
)

// ErrOutOfRange reports a mutation addressing an element index that
// does not exist in the current epoch.
var ErrOutOfRange = errors.New("gridrank: element index out of range")

// ErrLastElement reports an attempt to delete the last product or
// preference — empty sets are not representable.
var ErrLastElement = errors.New("gridrank: cannot delete the last element")

// checkProduct validates a product vector for insertion.
func (ix *Index) checkProduct(p Vector) error {
	if len(p) != ix.dim {
		return fmt.Errorf("%w: product has %d dimensions, want %d", ErrDimensionMismatch, len(p), ix.dim)
	}
	for j, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("gridrank: product attribute %d = %v (must be finite and non-negative)", j, x)
		}
	}
	return nil
}

// checkNewPreference validates a preference vector for insertion: the
// same finiteness rules as ad-hoc preferences, plus New's requirement
// that the weights sum to 1 (within 1e-6).
func (ix *Index) checkNewPreference(w Vector) error {
	if err := ix.checkPreference(w); err != nil {
		return err
	}
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("gridrank: preference weights sum to %v, want 1", sum)
	}
	return nil
}

// rebuildEpoch constructs epoch seq from scratch over (pm, wm), exactly
// as New would over the same data: fresh ranges, approximate vectors,
// groupings, grid and packed rows (whose width the grid size fixes).
func rebuildEpoch(seq uint64, pm, wm *vec.Matrix, n int) *epoch {
	rangeP := computeRangeP(pm.Rows())
	return &epoch{
		seq:    seq,
		pm:     pm,
		wm:     wm,
		rangeP: rangeP,
		gir:    algo.NewGIRFromMatrices(pm, wm, rangeP, n),
	}
}

// partitions returns the grid resolution of an epoch, preserved across
// rebuilds.
func (e *epoch) partitions() int { return e.gir.Grid().N() }

// nextPointEpoch derives the epoch after a single-product mutation:
// incremental when the persisted point range is unchanged (and the
// current grid actually uses it), a full rebuild otherwise. Both the
// insert and delete paths previously spelled this policy out inline;
// the range rule they share is documented at the top of this file.
// The derived result reports which path was taken, for the install's
// flight-recorder digest.
func nextPointEpoch(e *epoch, pm *vec.Matrix, derive func() *algo.GIR) (ne *epoch, derived bool) {
	if nr := computeRangeP(pm.Rows()); nr == e.rangeP && e.gir.PointRange() == e.rangeP {
		return &epoch{seq: e.seq + 1, pm: pm, wm: e.wm, rangeP: e.rangeP, gir: derive()}, true
	}
	return rebuildEpoch(e.seq+1, pm, e.wm, e.partitions()), false
}

// storeRebuilt publishes a from-scratch epoch over (pm, wm) — the
// shared tail of every batch mutation. op and start feed the install's
// flight-recorder digest.
func (ix *Index) storeRebuilt(e *epoch, pm, wm *vec.Matrix, op flight.Op, start time.Time) {
	pre := ix.flightProbe()
	ne := rebuildEpoch(e.seq+1, pm, wm, e.partitions())
	ix.cur.Store(ne)
	ix.publish(ne, answers.Change{Op: answers.Rebuild})
	ix.recordMutation(op, start, ne.seq, false, pre)
}

// InsertProduct appends product p to the index and returns its id
// (equal to NumProducts() before the call; existing ids are unchanged).
// The new epoch is visible to queries as soon as the call returns.
func (ix *Index) InsertProduct(p Vector) (int, error) {
	return ix.InsertProductCtx(context.Background(), p)
}

// InsertProductCtx is InsertProduct honoring a context: a cancelled or
// expired ctx aborts before the epoch is built (an installed mutation
// is never rolled back).
func (ix *Index) InsertProductCtx(ctx context.Context, p Vector) (int, error) {
	start := time.Now()
	if err := ix.checkProduct(p); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	pre := ix.flightProbe()
	e := ix.snap()
	id := e.pm.Len()
	pm := e.pm.WithAppended(p)
	ne, derived := nextPointEpoch(e, pm, func() *algo.GIR { return e.gir.WithAppendedPoint(pm) })
	ix.cur.Store(ne)
	ix.publish(ne, answers.Change{Op: answers.InsertProduct, Row: p})
	ix.recordMutation(flight.OpInsertProduct, start, ne.seq, derived, pre)
	return id, nil
}

// DeleteProduct removes product i. Products after i shift down by one
// id, matching a fresh build over the remaining data; the last product
// cannot be deleted.
func (ix *Index) DeleteProduct(i int) error {
	return ix.DeleteProductCtx(context.Background(), i)
}

// DeleteProductCtx is DeleteProduct honoring a context.
func (ix *Index) DeleteProductCtx(ctx context.Context, i int) error {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	pre := ix.flightProbe()
	e := ix.snap()
	if i < 0 || i >= e.pm.Len() {
		return fmt.Errorf("%w: product %d not in [0, %d)", ErrOutOfRange, i, e.pm.Len())
	}
	if e.pm.Len() == 1 {
		return fmt.Errorf("%w: the index holds one product", ErrLastElement)
	}
	// The removed row's view into e's storage stays valid after the new
	// epoch is built — epochs are immutable — so publish can use it
	// directly.
	removed := e.pm.Row(i)
	pm := e.pm.WithRemoved(i)
	ne, derived := nextPointEpoch(e, pm, func() *algo.GIR { return e.gir.WithRemovedPoint(pm, i) })
	ix.cur.Store(ne)
	ix.publish(ne, answers.Change{Op: answers.DeleteProduct, Row: removed})
	ix.recordMutation(flight.OpDeleteProduct, start, ne.seq, derived, pre)
	return nil
}

// InsertPreference appends preference w (non-negative weights summing
// to 1) and returns its id (equal to NumPreferences() before the call).
func (ix *Index) InsertPreference(w Vector) (int, error) {
	return ix.InsertPreferenceCtx(context.Background(), w)
}

// InsertPreferenceCtx is InsertPreference honoring a context.
func (ix *Index) InsertPreferenceCtx(ctx context.Context, w Vector) (int, error) {
	start := time.Now()
	if err := ix.checkNewPreference(w); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	pre := ix.flightProbe()
	e := ix.snap()
	id := e.wm.Len()
	wm := e.wm.WithAppended(w)
	maxComp := 0.0
	for _, x := range w {
		if x > maxComp {
			maxComp = x
		}
	}
	var ne *epoch
	derived := false
	if rw := e.gir.WeightRange(); rw > 0 && maxComp < rw {
		ne = &epoch{seq: e.seq + 1, pm: e.pm, wm: wm, rangeP: e.rangeP, gir: e.gir.WithAppendedWeight(wm)}
		derived = true
	} else {
		// A component at or beyond the weight axis would clamp into the
		// last cell and break the upper bound: rebuild with a grown axis.
		ne = rebuildEpoch(e.seq+1, e.pm, wm, e.partitions())
	}
	ix.cur.Store(ne)
	ix.publish(ne, answers.Change{Op: answers.InsertPreference, Pref: id})
	ix.recordMutation(flight.OpInsertPreference, start, ne.seq, derived, pre)
	return id, nil
}

// DeletePreference removes preference i. Preferences after i shift
// down by one id; the last preference cannot be deleted.
func (ix *Index) DeletePreference(i int) error {
	return ix.DeletePreferenceCtx(context.Background(), i)
}

// DeletePreferenceCtx is DeletePreference honoring a context.
func (ix *Index) DeletePreferenceCtx(ctx context.Context, i int) error {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	pre := ix.flightProbe()
	e := ix.snap()
	if i < 0 || i >= e.wm.Len() {
		return fmt.Errorf("%w: preference %d not in [0, %d)", ErrOutOfRange, i, e.wm.Len())
	}
	if e.wm.Len() == 1 {
		return fmt.Errorf("%w: the index holds one preference", ErrLastElement)
	}
	wm := e.wm.WithRemoved(i)
	ne := &epoch{
		seq: e.seq + 1, pm: e.pm, wm: wm, rangeP: e.rangeP,
		gir: e.gir.WithRemovedWeight(wm, i),
	}
	ix.cur.Store(ne)
	ix.publish(ne, answers.Change{Op: answers.DeletePreference, Pref: i})
	ix.recordMutation(flight.OpDeletePreference, start, ne.seq, true, pre)
	return nil
}

// InsertProducts appends products ps in order as one epoch and returns
// the id of the first (the batch occupies consecutive ids from it). The
// construction cost of the rebuild is paid once for the whole batch.
func (ix *Index) InsertProducts(ps []Vector) (int, error) {
	return ix.InsertProductsCtx(context.Background(), ps)
}

// InsertProductsCtx is InsertProducts honoring a context.
func (ix *Index) InsertProductsCtx(ctx context.Context, ps []Vector) (int, error) {
	start := time.Now()
	if len(ps) == 0 {
		return 0, errors.New("gridrank: empty product batch")
	}
	for bi, p := range ps {
		if err := ix.checkProduct(p); err != nil {
			return 0, fmt.Errorf("batch element %d: %w", bi, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e := ix.snap()
	first := e.pm.Len()
	rows := make([]Vector, 0, first+len(ps))
	rows = append(rows, e.pm.Rows()...)
	rows = append(rows, ps...)
	ix.storeRebuilt(e, vec.NewMatrix(rows), e.wm, flight.OpInsertProducts, start)
	return first, nil
}

// DeleteProducts removes the products with the given current-epoch ids
// as one epoch; survivors keep their order and renumber down past the
// gaps, matching a fresh build over the remaining data. Duplicate ids
// are rejected, and at least one product must survive.
func (ix *Index) DeleteProducts(ids []int) error {
	return ix.DeleteProductsCtx(context.Background(), ids)
}

// DeleteProductsCtx is DeleteProducts honoring a context.
func (ix *Index) DeleteProductsCtx(ctx context.Context, ids []int) error {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e := ix.snap()
	drop, err := checkBatchIDs(ids, e.pm.Len(), "product")
	if err != nil {
		return err
	}
	rows := surviving(e.pm, drop)
	ix.storeRebuilt(e, vec.NewMatrix(rows), e.wm, flight.OpDeleteProducts, start)
	return nil
}

// InsertPreferences appends preferences ws in order as one epoch and
// returns the id of the first.
func (ix *Index) InsertPreferences(ws []Vector) (int, error) {
	return ix.InsertPreferencesCtx(context.Background(), ws)
}

// InsertPreferencesCtx is InsertPreferences honoring a context.
func (ix *Index) InsertPreferencesCtx(ctx context.Context, ws []Vector) (int, error) {
	start := time.Now()
	if len(ws) == 0 {
		return 0, errors.New("gridrank: empty preference batch")
	}
	for bi, w := range ws {
		if err := ix.checkNewPreference(w); err != nil {
			return 0, fmt.Errorf("batch element %d: %w", bi, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e := ix.snap()
	first := e.wm.Len()
	rows := make([]Vector, 0, first+len(ws))
	rows = append(rows, e.wm.Rows()...)
	rows = append(rows, ws...)
	ix.storeRebuilt(e, e.pm, vec.NewMatrix(rows), flight.OpInsertPreferences, start)
	return first, nil
}

// DeletePreferences removes the preferences with the given
// current-epoch ids as one epoch; at least one must survive.
func (ix *Index) DeletePreferences(ids []int) error {
	return ix.DeletePreferencesCtx(context.Background(), ids)
}

// DeletePreferencesCtx is DeletePreferences honoring a context.
func (ix *Index) DeletePreferencesCtx(ctx context.Context, ids []int) error {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e := ix.snap()
	drop, err := checkBatchIDs(ids, e.wm.Len(), "preference")
	if err != nil {
		return err
	}
	rows := surviving(e.wm, drop)
	ix.storeRebuilt(e, e.pm, vec.NewMatrix(rows), flight.OpDeletePreferences, start)
	return nil
}

// checkBatchIDs validates a batch of element ids against a set of size
// count and returns the membership mask of ids to drop.
func checkBatchIDs(ids []int, count int, kind string) ([]bool, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("gridrank: empty %s batch", kind)
	}
	drop := make([]bool, count)
	for _, id := range ids {
		if id < 0 || id >= count {
			return nil, fmt.Errorf("%w: %s %d not in [0, %d)", ErrOutOfRange, kind, id, count)
		}
		if drop[id] {
			return nil, fmt.Errorf("gridrank: duplicate %s id %d in batch", kind, id)
		}
		drop[id] = true
	}
	if len(ids) >= count {
		return nil, fmt.Errorf("%w: batch would delete all %d %ss", ErrLastElement, count, kind)
	}
	return drop, nil
}

// surviving returns the rows of m not marked in drop, in order.
func surviving(m *vec.Matrix, drop []bool) []Vector {
	rows := make([]Vector, 0, m.Len()-1)
	for i, r := range m.Rows() {
		if !drop[i] {
			rows = append(rows, r)
		}
	}
	return rows
}
