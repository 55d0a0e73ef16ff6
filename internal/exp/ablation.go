package exp

import (
	"gridrank/internal/algo"
	"gridrank/internal/dataset"
	"gridrank/internal/grid"
)

func init() {
	register(Experiment{
		ID:    "ablation",
		Paper: "(ours) design ablations",
		Title: "Domin buffer, adaptive grid, and sparse-weight optimization, each on/off",
		Run:   runAblation,
	})
}

// runAblation quantifies the design choices DESIGN.md calls out:
//
//  1. dominator counting (shared dominating-point counts: GIR's pre-pass
//     before the scan, SIM's lazy Domin buffer of Algorithm 1),
//  2. the future-work adaptive quantile grid vs the paper's equal-width
//     grid on skewed (exponential) data, and
//  3. the future-work sparse-weight optimization on few-interest users.
//
// Each row reports time and exact multiplications with the feature on and
// off; answers are identical by construction (cross-validated in tests).
func runAblation(cfg Config) ([]*Table, error) {
	cfg = cfg.Defaults()
	rng := cfg.rng()
	const d = 6

	// 1. Dominators, uniform data, RKR workload (where the count starts
	// every weight's rank).
	domin := &Table{
		Title:   "Ablation 1: Domin buffer (UN data, d=6, RKR)",
		Columns: []string{"variant", "avg ms/query", "mults/query"},
	}
	{
		P := dataset.GenerateProducts(rng, dataset.Uniform, cfg.SizeP, d, dataset.DefaultRange)
		W := dataset.GenerateWeights(rng, dataset.Uniform, cfg.SizeW, d)
		qs := pickQueries(rng, P.Points, cfg.Queries)
		on := algo.NewGIR(P.Points, W.Points, P.Range, cfg.N)
		off := algo.NewGIR(P.Points, W.Points, P.Range, cfg.N)
		off.DisableDomin = true
		mOn := measureRKR(on, qs, cfg.K)
		mOff := measureRKR(off, qs, cfg.K)
		domin.AddRow("GIR with Domin", ms(mOn.avg), itoa64(mOn.perQueryMults()))
		domin.AddRow("GIR without Domin", ms(mOff.avg), itoa64(mOff.perQueryMults()))
		simOn := algo.NewSIM(P.Points, W.Points)
		simOff := algo.NewSIM(P.Points, W.Points)
		simOff.DisableDomin = true
		sOn := measureRKR(simOn, qs, cfg.K)
		sOff := measureRKR(simOff, qs, cfg.K)
		domin.AddRow("SIM with Domin", ms(sOn.avg), itoa64(sOn.perQueryMults()))
		domin.AddRow("SIM without Domin", ms(sOff.avg), itoa64(sOff.perQueryMults()))
	}

	// 2. Equal-width vs adaptive grid on exponential (skewed) data.
	adaptive := &Table{
		Title:   "Ablation 2: equal-width vs adaptive quantile grid (EX data, d=6, RKR)",
		Columns: []string{"grid", "avg ms/query", "mults/query", "refine rate"},
	}
	{
		P := dataset.GenerateProducts(rng, dataset.Exponential, cfg.SizeP, d, dataset.DefaultRange)
		W := dataset.GenerateWeights(rng, dataset.Uniform, cfg.SizeW, d)
		qs := pickQueries(rng, P.Points, cfg.Queries)
		for _, v := range []struct {
			name string
			gir  *algo.GIR
		}{
			{"equal-width", algo.NewGIR(P.Points, W.Points, P.Range, cfg.N)},
			{"adaptive", algo.NewGIRWithBounder(P.Points, W.Points,
				grid.NewAdaptive(cfg.N, P.Points, W.Points, P.Range))},
		} {
			m := measureRKR(v.gir, qs, cfg.K)
			adaptive.AddRow(v.name, ms(m.avg), itoa64(m.perQueryMults()),
				pct(1-m.counters.FilterRate()))
		}
	}

	// 3. Dense vs sparse GIR on sparse preferences (3 of 20 attributes).
	sparse := &Table{
		Title:   "Ablation 3: dense vs sparse GIR (UN data, d=20, 3 non-zero weights, RKR)",
		Columns: []string{"variant", "avg ms/query", "mults/query"},
	}
	{
		P := dataset.GenerateProducts(rng, dataset.Uniform, cfg.SizeP, 20, dataset.DefaultRange)
		W := dataset.SparseWeights(rng, cfg.SizeW, 20, 3)
		qs := pickQueries(rng, P.Points, cfg.Queries)
		dense := algo.NewGIR(P.Points, W.Points, P.Range, cfg.N)
		sp := algo.NewSparseGIR(P.Points, W.Points, P.Range, cfg.N)
		mDense := measureRKR(dense, qs, cfg.K)
		mSparse := measureRKR(sp, qs, cfg.K)
		sparse.AddRow("dense GIR", ms(mDense.avg), itoa64(mDense.perQueryMults()))
		sparse.AddRow("sparse GIR", ms(mSparse.avg), itoa64(mSparse.perQueryMults()))
	}
	return []*Table{domin, adaptive, sparse}, nil
}
