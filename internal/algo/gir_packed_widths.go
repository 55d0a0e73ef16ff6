package algo

// Width-specialized 4-row classify kernels, one per legal packed width
// (PackedWidth maps grid sizes 1..256 onto 4..8). The five bodies are the same template stamped out with b as a
// compile-time constant; only the shift/mask immediates and the
// codes-per-word count differ. Keeping b constant is worth the
// repetition: the generic kernel's variable shift pins the count in CL,
// keeps a shift cursor and the width live across the loop, and masks
// every extracted code twice (once with the width mask, once with a
// constant 0xff so the bounds-check prover has an upper bound). With
// immediates all of that folds away — the decode is one in-place
// SHR-by-constant per word per row plus one AND-by-constant per code,
// the prover bounds the code from the constant mask alone, and the
// freed registers keep the whole loop state out of memory.
//
// The four rows are addressed by word offset (o0..o3), not as one
// contiguous window: rankBounded gathers the next four *live* groups, so
// rows of fully-dominated groups are never classified. The offsets cost
// one int add per word in the outer loop, nothing in the per-code loop.
//
// Template (see classifyPacked4B5 for the annotated copy):
//
//   - outer loop per word of the four rows, inner loop per code in the
//     word (word-major, as in classifyPackedRow in gir_packed.go);
//   - codes index the packed split-halves bound table: lower addend at
//     bj[k], upper at bj[packedBoundHalf+k];
//   - one (lower, upper) accumulator pair per row, dimensions in row
//     order, so sums are bit-identical to the per-point reference's.
//
// packedClassify4Func selects the variant; TestGroupedVsReference
// sweeps grid sizes deriving every width against the per-point
// reference, so all five bodies are answer-checked, and
// scripts/check_bce.sh pins their
// bounds-check count (the table loads must stay provably in bounds).

// packedClassify4Func returns the 4-row classify kernel for a packed
// width. Called once per scan, outside the hot loop.
func packedClassify4Func(b int) func([]uint64, int, int, int, int, int, []float64, float64) uint32 {
	switch b {
	case 4:
		return classifyPacked4B4
	case 5:
		return classifyPacked4B5
	case 6:
		return classifyPacked4B6
	case 7:
		return classifyPacked4B7
	case 8:
		return classifyPacked4B8
	}
	panic("algo: no packed kernel for width")
}

// classifyPacked4B5 is the annotated template instance: four rows at
// b = 5 bits per code, 12 codes per word. o0..o3 are the rows' word
// offsets into the store; the return packs one case code byte per row
// (row r in bits 8r..8r+7).
//
//go:noinline
func classifyPacked4B5(words []uint64, o0, o1, o2, o3, d int, bnd []float64, fq float64) uint32 {
	const b, cpw = 5, 64 / 5
	const mask = uint64(1)<<b - 1
	var l0, u0, l1, u1, l2, u2, l3, u3 float64
	off := 0
	for wi, rem := 0, d; rem > 0; wi++ {
		// The four rows' words for this dimension run. Mutating shifts
		// (w >>= b) keep the decode to one immediate shift per word per
		// code, with no shift cursor.
		w0, w1, w2, w3 := words[o0+wi], words[o1+wi], words[o2+wi], words[o3+wi]
		m := cpw
		if rem < m {
			m = rem
		}
		rem -= m
		for ; m > 0; m-- {
			// Constant-length window: the prover sees len(bj) and
			// k ≤ mask < packedBoundHalf, so the eight table loads carry
			// no bounds checks.
			bj := bnd[off : off+packedBoundStride]
			k0 := int(w0 & mask)
			k1 := int(w1 & mask)
			k2 := int(w2 & mask)
			k3 := int(w3 & mask)
			l0 += bj[k0]
			u0 += bj[packedBoundHalf+k0]
			l1 += bj[k1]
			u1 += bj[packedBoundHalf+k1]
			l2 += bj[k2]
			u2 += bj[packedBoundHalf+k2]
			l3 += bj[k3]
			u3 += bj[packedBoundHalf+k3]
			w0 >>= b
			w1 >>= b
			w2 >>= b
			w3 >>= b
			off += packedBoundStride
		}
	}
	return packedCase(l0, u0, fq) | packedCase(l1, u1, fq)<<8 |
		packedCase(l2, u2, fq)<<16 | packedCase(l3, u3, fq)<<24
}

//go:noinline
func classifyPacked4B4(words []uint64, o0, o1, o2, o3, d int, bnd []float64, fq float64) uint32 {
	const b, cpw = 4, 64 / 4
	const mask = uint64(1)<<b - 1
	var l0, u0, l1, u1, l2, u2, l3, u3 float64
	off := 0
	for wi, rem := 0, d; rem > 0; wi++ {
		w0, w1, w2, w3 := words[o0+wi], words[o1+wi], words[o2+wi], words[o3+wi]
		m := cpw
		if rem < m {
			m = rem
		}
		rem -= m
		for ; m > 0; m-- {
			bj := bnd[off : off+packedBoundStride]
			k0 := int(w0 & mask)
			k1 := int(w1 & mask)
			k2 := int(w2 & mask)
			k3 := int(w3 & mask)
			l0 += bj[k0]
			u0 += bj[packedBoundHalf+k0]
			l1 += bj[k1]
			u1 += bj[packedBoundHalf+k1]
			l2 += bj[k2]
			u2 += bj[packedBoundHalf+k2]
			l3 += bj[k3]
			u3 += bj[packedBoundHalf+k3]
			w0 >>= b
			w1 >>= b
			w2 >>= b
			w3 >>= b
			off += packedBoundStride
		}
	}
	return packedCase(l0, u0, fq) | packedCase(l1, u1, fq)<<8 |
		packedCase(l2, u2, fq)<<16 | packedCase(l3, u3, fq)<<24
}

//go:noinline
func classifyPacked4B6(words []uint64, o0, o1, o2, o3, d int, bnd []float64, fq float64) uint32 {
	const b, cpw = 6, 64 / 6
	const mask = uint64(1)<<b - 1
	var l0, u0, l1, u1, l2, u2, l3, u3 float64
	off := 0
	for wi, rem := 0, d; rem > 0; wi++ {
		w0, w1, w2, w3 := words[o0+wi], words[o1+wi], words[o2+wi], words[o3+wi]
		m := cpw
		if rem < m {
			m = rem
		}
		rem -= m
		for ; m > 0; m-- {
			bj := bnd[off : off+packedBoundStride]
			k0 := int(w0 & mask)
			k1 := int(w1 & mask)
			k2 := int(w2 & mask)
			k3 := int(w3 & mask)
			l0 += bj[k0]
			u0 += bj[packedBoundHalf+k0]
			l1 += bj[k1]
			u1 += bj[packedBoundHalf+k1]
			l2 += bj[k2]
			u2 += bj[packedBoundHalf+k2]
			l3 += bj[k3]
			u3 += bj[packedBoundHalf+k3]
			w0 >>= b
			w1 >>= b
			w2 >>= b
			w3 >>= b
			off += packedBoundStride
		}
	}
	return packedCase(l0, u0, fq) | packedCase(l1, u1, fq)<<8 |
		packedCase(l2, u2, fq)<<16 | packedCase(l3, u3, fq)<<24
}

//go:noinline
func classifyPacked4B7(words []uint64, o0, o1, o2, o3, d int, bnd []float64, fq float64) uint32 {
	const b, cpw = 7, 64 / 7
	const mask = uint64(1)<<b - 1
	var l0, u0, l1, u1, l2, u2, l3, u3 float64
	off := 0
	for wi, rem := 0, d; rem > 0; wi++ {
		w0, w1, w2, w3 := words[o0+wi], words[o1+wi], words[o2+wi], words[o3+wi]
		m := cpw
		if rem < m {
			m = rem
		}
		rem -= m
		for ; m > 0; m-- {
			bj := bnd[off : off+packedBoundStride]
			k0 := int(w0 & mask)
			k1 := int(w1 & mask)
			k2 := int(w2 & mask)
			k3 := int(w3 & mask)
			l0 += bj[k0]
			u0 += bj[packedBoundHalf+k0]
			l1 += bj[k1]
			u1 += bj[packedBoundHalf+k1]
			l2 += bj[k2]
			u2 += bj[packedBoundHalf+k2]
			l3 += bj[k3]
			u3 += bj[packedBoundHalf+k3]
			w0 >>= b
			w1 >>= b
			w2 >>= b
			w3 >>= b
			off += packedBoundStride
		}
	}
	return packedCase(l0, u0, fq) | packedCase(l1, u1, fq)<<8 |
		packedCase(l2, u2, fq)<<16 | packedCase(l3, u3, fq)<<24
}

//go:noinline
func classifyPacked4B8(words []uint64, o0, o1, o2, o3, d int, bnd []float64, fq float64) uint32 {
	const b, cpw = 8, 64 / 8
	const mask = uint64(1)<<b - 1
	var l0, u0, l1, u1, l2, u2, l3, u3 float64
	off := 0
	for wi, rem := 0, d; rem > 0; wi++ {
		w0, w1, w2, w3 := words[o0+wi], words[o1+wi], words[o2+wi], words[o3+wi]
		m := cpw
		if rem < m {
			m = rem
		}
		rem -= m
		for ; m > 0; m-- {
			bj := bnd[off : off+packedBoundStride]
			k0 := int(w0 & mask)
			k1 := int(w1 & mask)
			k2 := int(w2 & mask)
			k3 := int(w3 & mask)
			l0 += bj[k0]
			u0 += bj[packedBoundHalf+k0]
			l1 += bj[k1]
			u1 += bj[packedBoundHalf+k1]
			l2 += bj[k2]
			u2 += bj[packedBoundHalf+k2]
			l3 += bj[k3]
			u3 += bj[packedBoundHalf+k3]
			w0 >>= b
			w1 >>= b
			w2 >>= b
			w3 >>= b
			off += packedBoundStride
		}
	}
	return packedCase(l0, u0, fq) | packedCase(l1, u1, fq)<<8 |
		packedCase(l2, u2, fq)<<16 | packedCase(l3, u3, fq)<<24
}
