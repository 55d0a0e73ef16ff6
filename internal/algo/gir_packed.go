package algo

// Packed-row scan kernels. The distinct P^(A) rows live bit-packed in a
// bits.PackedRows store (Section 3.2's b·d-bit strings, fixed-stride and
// word-aligned, b = PackedWidth(n)), and rankBounded classifies them
// here:
//
//   - Case 1/2 classification reads cell codes straight out of packed
//     words (shift + mask, no byte loads and no unpacking to a row
//     buffer). The per-(dimension, code) bound addends come from the
//     gathered scratch.bounds table, added in dimension order, so every
//     (lower, upper) sum is bit-identical to the per-point reference
//     scan's (refRankBounded in the tests) — Case boundaries cannot
//     move, which is what keeps answers byte-identical to it at every
//     width.
//   - The kernel is widened to RowBlock rows per call: one block of four
//     rows classifies in a single noinline leaf with eight independent
//     accumulator chains. A one-row loop is latency-bound on two serial
//     float adds per dimension; interleaving four rows gives the CPU
//     independent work to overlap, and amortizes the call per group to
//     a quarter.
//
// Case 3 unpacks nothing: refinement needs the exact float64 point, not
// the cells, so it reads the point matrix. Blocks are gathered from
// *live* groups only, in scan order, so fully-dominated rows are never
// classified, and counters are incremented only for groups still live
// at consume time (an all-Case-2 block is counted whole, its groups all
// still live), so every stats.Counters field equals a one-group-at-a-
// time scan's. The only speculation left is a group killed by a
// dominator observed between gather and consume: its classification is
// wasted arithmetic, but it is skipped unconsumed and uncharged.

// RowBlock is the widened kernel's block width: classifyPacked4
// processes this many rows per call. Reported by Index.Layout().
const RowBlock = 4

// packedBoundStride is the per-dimension stride of the bound table
// loadWeightGroup gathers: 2 addends × 256 codes, the widest code
// MaxPackedBits = 8 bits can express. Each dimension's row is split
// into halves — lower addends at [code], upper addends at
// [packedBoundHalf + code] — so both loads use the code register with
// native ×8 scaling and a constant displacement, with no 2·code+1
// address arithmetic per row.
//
// The stride and half being compile-time constants is what lets the
// kernels below slice the table per dimension
// (bnd[off : off+packedBoundStride]) and index the slice with code&0xff
// — both provably in bounds, so the compiler emits none of the eight
// per-dimension bounds checks that otherwise consume the loop's last
// registers and spill its state to the stack (scripts/check_bce.sh pins
// this). Only the first n entries of each half are written or read; the
// padding is dead space (64 KiB of scratch per worker at d = 16 instead
// of 8), traded for a spill-free inner loop.
// The stride carries one cache line of padding past the two halves:
// 2·256 float64 is exactly 4 KiB, so without it every dimension's rows
// would start 4 KiB apart and their live entries would collide on the
// same few L1 sets (a 32 KiB 8-way L1 wraps at 4 KiB — sixteen
// dimensions fighting over eight ways). The extra line shifts each
// dimension to a fresh set.
const (
	packedBoundHalf   = 256
	packedBoundStride = 2*packedBoundHalf + 8
)

// allCaseAfter is a full block's packed case word when all four rows are
// Case 2 — such a block moves no rank and refines nothing, so the scan
// counts it whole and drops it on a single compare.
const allCaseAfter = uint32(caseAfter) | uint32(caseAfter)<<8 |
	uint32(caseAfter)<<16 | uint32(caseAfter)<<24

// packedCase maps one row's bound sums to its Section 3.1 case code.
// Phrased as two conditional overwrites rather than an if/else chain so
// the compiler lowers it to compare+CMOV: the case outcome is
// data-dependent and unpredictable, and four mispredicted branch chains
// per block cost more than eight flag-register moves.
func packedCase(l, u, fq float64) uint32 {
	c := uint32(caseAfter)
	if l <= fq {
		c = uint32(caseRefine)
	}
	if u < fq {
		c = uint32(caseBefore)
	}
	return c
}

// classifyPackedRow classifies one packed row — the scalar tail kernel
// for the up-to-three live groups past the last full block. It adds the
// same addends in the same order as the 4-row kernels.
//
//go:noinline
func classifyPackedRow(row []uint64, cpw, b, d int, bnd []float64, fq float64) int32 {
	mask := uint64(1)<<uint(b) - 1
	var l, u float64
	off := 0
	for wi, rem := 0, d; rem > 0; wi++ {
		w := row[wi]
		m := cpw
		if rem < m {
			m = rem
		}
		rem -= m
		for ; m > 0; m-- {
			bj := bnd[off : off+packedBoundStride]
			k := int(w&mask) & 0xff
			l += bj[k]
			u += bj[packedBoundHalf+k]
			w >>= uint(b)
			off += packedBoundStride
		}
	}
	if u < fq {
		return caseBefore
	}
	if l <= fq {
		return caseRefine
	}
	return caseAfter
}
