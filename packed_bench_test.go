package gridrank

// The packed-row scan at the paper's default grid (n = 32, so the rows
// pack at the derived 5 bits per cell), on the reverse k-ranks scan at
// the paper's default d = 6 and at d = 16 where the per-row classify
// work dominates, plus reverse top-k at d = 16. scripts/bench.sh
// records them in BENCH_gir.json.

import (
	"testing"

	"gridrank/internal/algo"
)

func BenchmarkGIRPackedKRanksD6(b *testing.B)  { benchGIRPackedRKR(b, 6) }
func BenchmarkGIRPackedKRanksD16(b *testing.B) { benchGIRPackedRKR(b, 16) }

func BenchmarkGIRPackedTopKD16(b *testing.B) {
	data := makeBenchData(b, 4000, 1000, 16)
	gir := algo.NewGIR(data.P, data.W, DefaultRange, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gir.ReverseTopK(data.q, 100, nil)
	}
}

func benchGIRPackedRKR(b *testing.B, d int) {
	b.Helper()
	data := makeBenchData(b, 4000, 1000, d)
	gir := algo.NewGIR(data.P, data.W, DefaultRange, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gir.ReverseKRanks(data.q, 100, nil)
	}
}
