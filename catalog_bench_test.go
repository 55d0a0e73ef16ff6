package gridrank

// BenchmarkGIRCatalog prices one query on the end-to-end benchmark's
// catalog shape (perfbench/): DIANPING-simulated products and
// preferences, 4,000 × 1,000 at d = 6, k = 10, one worker and no answer
// cache. Each iteration asks the next of a fixed set of fresh query
// products — drawn from the product distribution but not in the index —
// so the number is a scan over the catalog, never a cache hit.
//
// Catalog data is where the all-Case-2 block drop of the packed scan
// matters: most point groups sort entirely after a typical query, so
// whole four-group blocks are decided on one compare. The uniform and
// clustered GIR benchmarks at k = 100 barely exercise it. Tracked in
// BENCH_gir.json by scripts/bench.sh.

import (
	"context"
	"testing"
)

func BenchmarkGIRCatalog(b *testing.B) {
	P, err := GenerateProducts(1, Dianping, 4000, 6)
	if err != nil {
		b.Fatal(err)
	}
	W, err := GeneratePreferences(2, Dianping, 1000, 6)
	if err != nil {
		b.Fatal(err)
	}
	Q, err := GenerateProducts(3, Dianping, 64, 6)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := New(P, W, &Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("rtk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.ReverseTopKCtx(ctx, Q[i%len(Q)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rkr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.ReverseKRanksCtx(ctx, Q[i%len(Q)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}
