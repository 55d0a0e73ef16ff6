package algo

// Microbenchmarks for the classify kernels in isolation. The macro
// ReverseKRanks benchmarks (root package) price the whole scan and are
// noisy on shared machines; these loop one kernel over a resident row
// store and a resident bound table, so the ns/row figure is stable
// enough to steer kernel work. The sink defeats dead-code elimination.

import (
	"math/rand"
	"testing"

	"gridrank/internal/bits"
)

var kernelSink int32

func kernelFixture(nRows, d, n, b, stride int) (pk *bits.PackedRows, bnd []float64, fq float64) {
	rng := rand.New(rand.NewSource(7))
	rowsU8 := make([]uint8, nRows*d)
	for i := range rowsU8 {
		rowsU8[i] = uint8(rng.Intn(n))
	}
	pk = bits.NewPackedRows(nRows, d, b)
	for r := 0; r < nRows; r++ {
		pk.EncodeRow(r, rowsU8[r*d:(r+1)*d])
	}
	bnd = make([]float64, d*stride)
	for i := range bnd {
		bnd[i] = rng.Float64()
	}
	// A mid-range threshold so all three cases occur and the final
	// compares stay unpredictable, as in a real scan.
	fq = float64(d) * 0.5
	return pk, bnd, fq
}

func benchClassifyPacked4(b *testing.B, d, pb int) {
	const nRows, n = 4096, 32
	pk, bnd, fq := kernelFixture(nRows, d, n, pb, packedBoundStride)
	words := pk.Words()
	wpr := pk.WordsPerRow()
	classify4 := packedClassify4Func(pb)
	b.SetBytes(int64(4 * d))
	b.ResetTimer()
	var s uint32
	for i := 0; i < b.N; i++ {
		g := (i * 4) % nRows
		s += classify4(words, g*wpr, (g+1)*wpr, (g+2)*wpr, (g+3)*wpr, d, bnd, fq)
	}
	kernelSink = int32(s)
}

func BenchmarkClassifyPacked4D6(b *testing.B)  { benchClassifyPacked4(b, 6, 5) }
func BenchmarkClassifyPacked4D16(b *testing.B) { benchClassifyPacked4(b, 16, 5) }
