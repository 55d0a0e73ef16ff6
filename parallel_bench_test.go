package gridrank

// Benchmarks of the intra-query parallel GIR path on the large-single-
// query workload it was built for: one market-analysis style query over
// |W| = 50k preferences, d = 6 (the paper's default dimensionality).
// Speedup over workers=1 requires real cores; on a single-CPU machine
// the sub-benchmarks instead measure the coordination overhead. Run:
//
//	go test -bench 'BenchmarkGIRParallel|BenchmarkIndexConstruction' -benchtime 3x

import (
	"context"
	"fmt"
	"testing"

	"gridrank/internal/algo"
	"gridrank/internal/grid"
)

func makeParallelBenchData(b *testing.B) (benchData, *algo.GIR) {
	b.Helper()
	data := makeBenchData(b, 5000, 50000, 6)
	return data, algo.NewGIR(data.P, data.W, DefaultRange, 32)
}

// BenchmarkGIRParallel sweeps the worker pool size for both query types;
// the acceptance workload of the parallel execution model.
func BenchmarkGIRParallel(b *testing.B) {
	data, gir := makeParallelBenchData(b)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rkr/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gir.ReverseKRanksOpts(ctx, data.q, 10, algo.QueryOpts{Workers: workers})
			}
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rtk/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gir.ReverseTopKOpts(ctx, data.q, 100, algo.QueryOpts{Workers: workers})
			}
		})
	}
}

// BenchmarkIndexConstructionParallel measures the cold-start cost the
// sharded row fill attacks: building P^(A) and W^(A) for the same
// 5k x 50k workload.
func BenchmarkIndexConstructionParallel(b *testing.B) {
	data := makeBenchData(b, 5000, 50000, 6)
	g := grid.New(32, DefaultRange, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grid.NewPointIndexParallel(g, data.P, workers)
				grid.NewWeightIndexParallel(g, data.W, workers)
			}
		})
	}
}
