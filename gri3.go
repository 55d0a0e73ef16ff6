package gridrank

// GRI3, the zero-copy index format (little endian throughout).
//
// Versions 1 and 2 store only the authoritative data sets and rebuild
// the grid artifacts on load — O(|P|·d + |W|·d) cell assignments, two
// groupings and an (n+1)² table per open. GRI3 instead stores every
// artifact the scan needs, each as one fixed-stride machine-word array
// at a page-aligned offset, so a load is reassembly: the file (mapped
// or read into one aligned buffer) IS the index's memory.
//
//	header        88 bytes (layout below)
//	section table sectionCount × 32-byte entries
//	sections      each zero-padded to a 4096-byte boundary
//
// Header layout:
//
//	 0  magic        uint32  'G''R''I''3'
//	 4  n            uint32  grid partitions per axis
//	 8  packedBits   uint32  packed row width (see below)
//	12  dim          uint32  dimensionality
//	16  sectionCount uint32  15, or 16 when packedBits > 0
//	20  reserved     uint32  zero
//	24  numP         uint64  |P|
//	32  numW         uint64  |W|
//	40  pGroups      uint64  distinct approximate product rows
//	48  wGroups      uint64  distinct approximate preference rows
//	56  rangeP       float64 point axis range
//	64  rangeW       float64 weight axis range (stored so a load never
//	                         pays the O(|W|·d) rescan New performs)
//	72  fileSize     uint64  total file length in bytes
//	80  headerCRC    uint64  CRC-64/ECMA over bytes [0,80) ++ the table
//
// The writer always stores the packed rows at the width the grid size
// derives (algo.PackedWidth) — every index scans at that width. Files
// written before the width was derived may carry packedBits = 0 (no
// packed-rows section) or another width in [4, 8] that still encodes n;
// both load, their rows re-packed on the heap at the derived width, and
// re-save byte-identical to a fresh build.
//
// Each section-table entry is {id uint32, reserved uint32, offset
// uint64, length uint64, crc uint64} with CRC-64/ECMA over the payload.
// The table is self-describing for external tools, but a conforming
// file has NO layout freedom: section ids must appear in canonical
// order and every offset must equal the deterministic packing computed
// from the header counts (first section at the first 4096-byte boundary
// after the table, each next at the first boundary after the previous
// payload). One equality check therefore subsumes overlap, ordering,
// alignment and bounds validation, and fileSize pins the total length
// so truncation is detected before any section is touched.
//
// Validation is split by trust level. The heap reader (ReadIndex/Load)
// treats the stream as untrusted: every section CRC is verified and the
// semantic invariants re-checked — floats finite and in range, weights
// summing to 1, approximate cells equal to re-approximating the data,
// the boundary table equal to recomputation, groupings cross-validated
// (grid.GroupedFromParts strict mode). The mmap reader verifies the
// header CRC and the O(1) shape arithmetic that ties every section to
// the header counts, but skips all content passes — that is what makes
// a multi-gigabyte open a millisecond operation — and trusts the file
// the way any mmap-served database does: a corrupted payload surfaces
// as a bounds-check panic or a wrong answer, never memory corruption.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"gridrank/internal/algo"
	"gridrank/internal/bits"
	"gridrank/internal/dataset"
	"gridrank/internal/flight"
	"gridrank/internal/grid"
	"gridrank/internal/vec"
)

const (
	indexMagicV3  = 0x33495247 // "GRI3"
	gri3Align     = 4096
	gri3HeaderLen = 88
	gri3EntryLen  = 32
)

// Section ids, in canonical file order.
const (
	secProducts    = iota + 1 // product matrix, numP×dim float64
	secPrefs                  // preference matrix, numW×dim float64
	secPointCells             // P^(A) element cells, numP×dim uint8
	secWeightCells            // W^(A) element cells, numW×dim uint8
	secPGRows                 // point grouping: unique rows, pGroups×dim uint8
	secPGMembers              // point grouping: member permutation, numP int32
	secPGOffsets              // point grouping: block offsets, pGroups+1 int32
	secPGGroupOf              // point grouping: element→group map, numP int32
	secPGSingle               // point grouping: singleton cache, pGroups int32
	secWGRows                 // weight grouping: unique rows
	secWGMembers              // weight grouping: member permutation
	secWGOffsets              // weight grouping: block offsets
	secWGGroupOf              // weight grouping: element→group map
	secWGSingle               // weight grouping: singleton cache
	secGridTable              // boundary-product table, (n+1)² float64
	secPackedRows             // packed point group rows; absent when packedBits is 0
)

var gri3CRC = crc64.MakeTable(crc64.ECMA)

// gri3Header is the decoded fixed header.
type gri3Header struct {
	n, packedBits, dim int
	numP, numW         int
	pGroups, wGroups   int
	sections           int
	rangeP, rangeW     float64
	fileSize           uint64
}

// gri3Section is one section-table entry.
type gri3Section struct {
	id     uint32
	offset uint64
	length uint64
	crc    uint64
}

// sectionLengths returns the canonical payload lengths, in section-id
// order, implied by the header counts.
func (h gri3Header) sectionLengths() []uint64 {
	d := uint64(h.dim)
	np, nw := uint64(h.numP), uint64(h.numW)
	pg, wg := uint64(h.pGroups), uint64(h.wGroups)
	n1 := uint64(h.n + 1)
	ls := []uint64{
		np * d * 8,   // secProducts
		nw * d * 8,   // secPrefs
		np * d,       // secPointCells
		nw * d,       // secWeightCells
		pg * d,       // secPGRows
		np * 4,       // secPGMembers
		(pg + 1) * 4, // secPGOffsets
		np * 4,       // secPGGroupOf
		pg * 4,       // secPGSingle
		wg * d,       // secWGRows
		nw * 4,       // secWGMembers
		(wg + 1) * 4, // secWGOffsets
		nw * 4,       // secWGGroupOf
		wg * 4,       // secWGSingle
		n1 * n1 * 8,  // secGridTable
	}
	if h.packedBits > 0 {
		cpw := uint64(64 / h.packedBits)
		ls = append(ls, pg*((d+cpw-1)/cpw)*8) // secPackedRows
	}
	return ls
}

// gri3Pad rounds an offset up to the next section boundary.
func gri3Pad(off uint64) uint64 { return (off + gri3Align - 1) &^ uint64(gri3Align-1) }

// layout computes the canonical section placement and total file size
// implied by the header counts. Every conforming file matches it
// exactly (CRCs aside, which layout leaves zero).
func (h gri3Header) layout() ([]gri3Section, uint64) {
	ls := h.sectionLengths()
	secs := make([]gri3Section, len(ls))
	off := gri3Pad(uint64(gri3HeaderLen + gri3EntryLen*len(ls)))
	for i, l := range ls {
		secs[i] = gri3Section{id: uint32(i + 1), offset: off, length: l}
		off = gri3Pad(off + l)
	}
	last := secs[len(secs)-1]
	return secs, last.offset + last.length
}

// encodeHeader serializes h, computing the header CRC over the fixed
// fields and the already-encoded section table.
func (h gri3Header) encodeHeader(table []byte) []byte {
	b := make([]byte, gri3HeaderLen)
	le := binary.LittleEndian
	le.PutUint32(b[0:], indexMagicV3)
	le.PutUint32(b[4:], uint32(h.n))
	le.PutUint32(b[8:], uint32(h.packedBits))
	le.PutUint32(b[12:], uint32(h.dim))
	le.PutUint32(b[16:], uint32(h.sections))
	// b[20:24] reserved, zero.
	le.PutUint64(b[24:], uint64(h.numP))
	le.PutUint64(b[32:], uint64(h.numW))
	le.PutUint64(b[40:], uint64(h.pGroups))
	le.PutUint64(b[48:], uint64(h.wGroups))
	le.PutUint64(b[56:], math.Float64bits(h.rangeP))
	le.PutUint64(b[64:], math.Float64bits(h.rangeW))
	le.PutUint64(b[72:], h.fileSize)
	crc := crc64.New(gri3CRC)
	crc.Write(b[:80])
	crc.Write(table)
	le.PutUint64(b[80:], crc.Sum64())
	return b
}

// badRange reports a range value unusable as a grid axis.
func badRange(r float64) bool { return math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 }

// parseGRI3Header decodes and validates the fixed header (the CRC needs
// the section table and is checked by parseGRI3Image). Field bounds are
// plausibility limits: they keep every later size computation inside
// uint64 and reject absurd counts before any allocation happens.
func parseGRI3Header(b []byte) (gri3Header, error) {
	le := binary.LittleEndian
	var h gri3Header
	if le.Uint32(b[0:]) != indexMagicV3 {
		return h, fmt.Errorf("%w: bad magic", ErrBadIndexFile)
	}
	h.n = int(le.Uint32(b[4:]))
	h.packedBits = int(le.Uint32(b[8:]))
	h.dim = int(le.Uint32(b[12:]))
	h.sections = int(le.Uint32(b[16:]))
	reserved := le.Uint32(b[20:])
	numP := le.Uint64(b[24:])
	numW := le.Uint64(b[32:])
	pGroups := le.Uint64(b[40:])
	wGroups := le.Uint64(b[48:])
	h.rangeP = math.Float64frombits(le.Uint64(b[56:]))
	h.rangeW = math.Float64frombits(le.Uint64(b[64:]))
	h.fileSize = le.Uint64(b[72:])
	if h.n < 1 || h.n > grid.MaxPartitions {
		return h, fmt.Errorf("%w: implausible partition count %d", ErrBadIndexFile, h.n)
	}
	if h.packedBits != 0 {
		if h.packedBits < algo.MinPackedBits || h.packedBits > algo.MaxPackedBits {
			return h, fmt.Errorf("%w: implausible packed width %d", ErrBadIndexFile, h.packedBits)
		}
		if 1<<h.packedBits < h.n {
			return h, fmt.Errorf("%w: packed width %d cannot encode %d partitions", ErrBadIndexFile, h.packedBits, h.n)
		}
	}
	if h.dim < 1 || h.dim > 1<<16 {
		return h, fmt.Errorf("%w: implausible dimension %d", ErrBadIndexFile, h.dim)
	}
	if reserved != 0 {
		return h, fmt.Errorf("%w: reserved header field is %d", ErrBadIndexFile, reserved)
	}
	if numP < 1 || numP > 1<<33 || numW < 1 || numW > 1<<33 {
		return h, fmt.Errorf("%w: implausible element counts %d×%d", ErrBadIndexFile, numP, numW)
	}
	if pGroups < 1 || pGroups > numP || wGroups < 1 || wGroups > numW {
		return h, fmt.Errorf("%w: implausible group counts %d/%d", ErrBadIndexFile, pGroups, wGroups)
	}
	h.numP, h.numW = int(numP), int(numW)
	h.pGroups, h.wGroups = int(pGroups), int(wGroups)
	if badRange(h.rangeP) || badRange(h.rangeW) {
		return h, fmt.Errorf("%w: implausible ranges (%v, %v)", ErrBadIndexFile, h.rangeP, h.rangeW)
	}
	canon, size := h.layout()
	if h.sections != len(canon) {
		return h, fmt.Errorf("%w: %d sections, want %d", ErrBadIndexFile, h.sections, len(canon))
	}
	if h.fileSize != size {
		return h, fmt.Errorf("%w: file size %d, canonical layout needs %d", ErrBadIndexFile, h.fileSize, size)
	}
	return h, nil
}

// parseGRI3Sections decodes the section table and pins every entry to
// the canonical layout; only the CRC field carries information.
func parseGRI3Sections(h gri3Header, table []byte) ([]gri3Section, error) {
	canon, _ := h.layout()
	le := binary.LittleEndian
	for i := range canon {
		e := table[i*gri3EntryLen:]
		if id := le.Uint32(e[0:]); id != canon[i].id {
			return nil, fmt.Errorf("%w: section %d has id %d, want %d", ErrBadIndexFile, i, id, canon[i].id)
		}
		if r := le.Uint32(e[4:]); r != 0 {
			return nil, fmt.Errorf("%w: section %d reserved field is %d", ErrBadIndexFile, i, r)
		}
		if off := le.Uint64(e[8:]); off != canon[i].offset {
			return nil, fmt.Errorf("%w: section %d at offset %d, canonical layout puts it at %d",
				ErrBadIndexFile, i, off, canon[i].offset)
		}
		if l := le.Uint64(e[16:]); l != canon[i].length {
			return nil, fmt.Errorf("%w: section %d is %d bytes, canonical layout needs %d",
				ErrBadIndexFile, i, l, canon[i].length)
		}
		canon[i].crc = le.Uint64(e[24:])
	}
	return canon, nil
}

// The typed views of a section: zero-copy reinterpretation on a
// little-endian host (the buffer is 8-byte aligned and sections sit at
// 4096-byte offsets), an element-wise decode otherwise.

func gri3Float64s(b []byte) []float64 {
	if v, ok := vec.CastFloat64s(b); ok {
		return v
	}
	return vec.DecodeFloat64s(b)
}

func gri3Int32s(b []byte) []int32 {
	if v, ok := vec.CastInt32s(b); ok {
		return v
	}
	return vec.DecodeInt32s(b)
}

func gri3Uint64s(b []byte) []uint64 {
	if v, ok := vec.CastUint64s(b); ok {
		return v
	}
	return vec.DecodeUint64s(b)
}

// And the reverse direction for the writer: the in-memory arrays ARE
// the payload bytes on a little-endian host.

func gri3F64Bytes(v []float64) []byte {
	if b, ok := vec.Float64Bytes(v); ok {
		return b
	}
	return vec.EncodeFloat64s(v)
}

func gri3I32Bytes(v []int32) []byte {
	if b, ok := vec.Int32Bytes(v); ok {
		return b
	}
	return vec.EncodeInt32s(v)
}

func gri3U64Bytes(v []uint64) []byte {
	if b, ok := vec.Uint64Bytes(v); ok {
		return b
	}
	return vec.EncodeUint64s(v)
}

// parseGRI3Image assembles an epoch from a complete GRI3 file image —
// a heap buffer or a memory mapping; every constructed structure views
// data without copying, so data must stay alive and unmodified for the
// epoch's lifetime.
//
// full selects the untrusted-input validation level described in the
// format comment: section CRCs plus semantic re-derivation (heap
// loads). Without it only the header CRC and the structural shape
// checks run (mmap loads).
func parseGRI3Image(data []byte, full bool) (*epoch, int, error) {
	if len(data) < gri3HeaderLen {
		return nil, 0, fmt.Errorf("%w: %d bytes cannot hold a GRI3 header", ErrBadIndexFile, len(data))
	}
	h, err := parseGRI3Header(data[:gri3HeaderLen])
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(data)) != h.fileSize {
		return nil, 0, fmt.Errorf("%w: image is %d bytes, header says %d", ErrBadIndexFile, len(data), h.fileSize)
	}
	table := data[gri3HeaderLen : gri3HeaderLen+gri3EntryLen*h.sections]
	crc := crc64.New(gri3CRC)
	crc.Write(data[:80])
	crc.Write(table)
	if got := binary.LittleEndian.Uint64(data[80:88]); crc.Sum64() != got {
		return nil, 0, fmt.Errorf("%w: header checksum mismatch", ErrBadIndexFile)
	}
	secs, err := parseGRI3Sections(h, table)
	if err != nil {
		return nil, 0, err
	}
	payload := func(id int) []byte {
		s := secs[id-1]
		return data[s.offset : s.offset+s.length]
	}
	if full {
		// Every byte of the file is significant to the untrusted reader:
		// the header and table are under the header CRC, each payload under
		// its section CRC, and the alignment padding must be zero — so no
		// single-byte corruption can hide anywhere.
		pos := uint64(gri3HeaderLen + len(table))
		for _, s := range secs {
			for _, pad := range data[pos:s.offset] {
				if pad != 0 {
					return nil, 0, fmt.Errorf("%w: nonzero padding before section %d", ErrBadIndexFile, s.id)
				}
			}
			if crc64.Checksum(data[s.offset:s.offset+s.length], gri3CRC) != s.crc {
				return nil, 0, fmt.Errorf("%w: section %d checksum mismatch", ErrBadIndexFile, s.id)
			}
			pos = s.offset + s.length
		}
	}

	pData := gri3Float64s(payload(secProducts))
	wData := gri3Float64s(payload(secPrefs))
	pm := vec.MatrixFromFlat(pData, h.dim)
	wm := vec.MatrixFromFlat(wData, h.dim)
	g, err := grid.FromTable(h.n, h.rangeP, h.rangeW, gri3Float64s(payload(secGridTable)))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	pa, err := grid.IndexFromCells(g, h.dim, payload(secPointCells))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	wa, err := grid.IndexFromCells(g, h.dim, payload(secWeightCells))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	var packed *bits.PackedRows
	if h.packedBits > 0 {
		packed, err = bits.RowsFromWords(h.pGroups, h.dim, h.packedBits, gri3Uint64s(payload(secPackedRows)), full)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: packed rows: %v", ErrBadIndexFile, err)
		}
	}
	pg, err := grid.GroupedFromParts(pa, payload(secPGRows),
		gri3Int32s(payload(secPGMembers)), gri3Int32s(payload(secPGOffsets)),
		gri3Int32s(payload(secPGGroupOf)), gri3Int32s(payload(secPGSingle)), packed, full)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: point grouping: %v", ErrBadIndexFile, err)
	}
	wg, err := grid.GroupedFromParts(wa, payload(secWGRows),
		gri3Int32s(payload(secWGMembers)), gri3Int32s(payload(secWGOffsets)),
		gri3Int32s(payload(secWGGroupOf)), gri3Int32s(payload(secWGSingle)), nil, full)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: weight grouping: %v", ErrBadIndexFile, err)
	}
	if full {
		if err := verifyGRI3Semantics(h, pData, wData, g, pa, wa); err != nil {
			return nil, 0, err
		}
	}
	return &epoch{
		pm:     pm,
		wm:     wm,
		rangeP: h.rangeP,
		gir: algo.NewGIRFromParts(algo.GIRParts{
			PM: pm, WM: wm, Grid: g,
			PA: pa, WA: wa, PG: pg, WG: wg,
		}),
	}, h.dim, nil
}

// verifyGRI3Semantics re-derives what versions 1 and 2 rebuild on every
// load and demands equality: data values legal for their axes, the
// stored weight range canonical for the data (so a re-save stays
// byte-identical to a fresh build), and every element cell equal to
// re-approximating its vector — which also bounds each cell below n.
// One O(|P|·d + |W|·d) pass, heap loads only.
func verifyGRI3Semantics(h gri3Header, pData, wData []float64, g *grid.Grid, pa, wa *grid.Index) error {
	pset := &dataset.FlatSet{Dim: h.dim, Range: h.rangeP, Data: pData}
	if err := pset.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	wset := &dataset.FlatSet{Dim: h.dim, Data: wData}
	if err := wset.ValidateWeights(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	if want := algo.CanonicalWeightRange(vec.MatrixFromFlat(wData, h.dim)); h.rangeW != want {
		return fmt.Errorf("%w: weight range %v, data needs %v", ErrBadIndexFile, h.rangeW, want)
	}
	row := make([]uint8, h.dim)
	for i := 0; i < h.numP; i++ {
		g.ApproxPoint(pData[i*h.dim:(i+1)*h.dim], row)
		if !bytesEqual(pa.Row(i), row) {
			return fmt.Errorf("%w: product %d cells disagree with its data", ErrBadIndexFile, i)
		}
	}
	for i := 0; i < h.numW; i++ {
		g.ApproxWeight(wData[i*h.dim:(i+1)*h.dim], row)
		if !bytesEqual(wa.Row(i), row) {
			return fmt.Errorf("%w: preference %d cells disagree with its data", ErrBadIndexFile, i)
		}
	}
	return nil
}

func bytesEqual(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gri3Artifacts are the grid structures a save serializes, already in
// the canonical (fresh-build-identical) form.
type gri3Artifacts struct {
	g      *grid.Grid
	pa, wa *grid.Index
	pg, wg *grid.GroupedIndex
}

// canonicalArtifacts returns the epoch's grid artifacts exactly as a
// fresh build over the same data would produce them, which is what
// keeps Save of a mutated index byte-identical to Save of New(current
// data). Point mutations maintain rangeP canonically, but two kinds of
// drift are possible and repaired here: preference deletions keep a
// wider-than-canonical weight axis (still a valid bounder, so queries
// stay exact, but a fresh build would choose the tighter one), and
// element removals can renumber groups away from first-occurrence
// order (see grid/mutate.go). The common no-mutation case passes
// through with zero rebuilding.
func canonicalArtifacts(e *epoch) gri3Artifacts {
	art := gri3Artifacts{
		pa: e.gir.PointCells(),
		wa: e.gir.WeightCells(),
		pg: e.gir.PointGrouping(),
		wg: e.gir.WeightGrouping(),
	}
	rangeW := algo.CanonicalWeightRange(e.wm)
	g, ok := e.gir.Grid().(*grid.Grid)
	if !ok || g.RangeP() != e.rangeP || g.RangeW() != rangeW {
		g = grid.New(e.gir.Grid().N(), e.rangeP, rangeW)
		art.wa = grid.NewWeightIndex(g, e.wm.Rows())
		art.wg = grid.NewGrouped(art.wa)
	} else if !art.wg.Canonical() {
		art.wg = grid.NewGrouped(art.wa)
	}
	art.g = g
	if !art.pg.Canonical() {
		art.pg = grid.NewGrouped(art.pa)
		art.pg.Pack(e.gir.PackedBits())
	}
	return art
}

// writeGRI3 serializes one epoch snapshot in the GRI3 format. The
// returned count is the total number of bytes written to w (equal to
// the header's fileSize on success), per the io.WriterTo contract.
func writeGRI3(w io.Writer, e *epoch, dim int) (int64, error) {
	art := canonicalArtifacts(e)
	h := gri3Header{
		n:          art.g.N(),
		packedBits: e.gir.PackedBits(),
		dim:        dim,
		numP:       e.pm.Len(),
		numW:       e.wm.Len(),
		pGroups:    art.pg.Groups(),
		wGroups:    art.wg.Groups(),
		rangeP:     e.rangeP,
		rangeW:     art.g.RangeW(),
	}
	payloads := [][]byte{
		gri3F64Bytes(e.pm.Data()),
		gri3F64Bytes(e.wm.Data()),
		art.pa.Cells(),
		art.wa.Cells(),
		art.pg.Rows(),
		gri3I32Bytes(art.pg.MemberOrder()),
		gri3I32Bytes(art.pg.Offsets()),
		gri3I32Bytes(art.pg.GroupMap()),
		gri3I32Bytes(art.pg.Single()),
		art.wg.Rows(),
		gri3I32Bytes(art.wg.MemberOrder()),
		gri3I32Bytes(art.wg.Offsets()),
		gri3I32Bytes(art.wg.GroupMap()),
		gri3I32Bytes(art.wg.Single()),
		gri3F64Bytes(art.g.Table()),
		gri3U64Bytes(art.pg.Packed().Words()),
	}
	h.sections = len(payloads)
	secs, fileSize := h.layout()
	h.fileSize = fileSize
	table := make([]byte, gri3EntryLen*len(secs))
	le := binary.LittleEndian
	for i, p := range payloads {
		if uint64(len(p)) != secs[i].length {
			return 0, fmt.Errorf("gridrank: internal: section %d is %d bytes, layout computed %d",
				secs[i].id, len(p), secs[i].length)
		}
		ent := table[i*gri3EntryLen:]
		le.PutUint32(ent[0:], secs[i].id)
		le.PutUint64(ent[8:], secs[i].offset)
		le.PutUint64(ent[16:], secs[i].length)
		le.PutUint64(ent[24:], crc64.Checksum(p, gri3CRC))
	}

	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(h.encodeHeader(table)); err != nil {
		return cw.n, err
	}
	if _, err := bw.Write(table); err != nil {
		return cw.n, err
	}
	var zeros [gri3Align]byte
	pos := uint64(gri3HeaderLen + len(table))
	for i, p := range payloads {
		if _, err := bw.Write(zeros[:secs[i].offset-pos]); err != nil {
			return cw.n, err
		}
		if _, err := bw.Write(p); err != nil {
			return cw.n, err
		}
		pos = secs[i].offset + secs[i].length
	}
	err := bw.Flush()
	return cw.n, err
}

// readIndexV3 is the heap GRI3 reader: it pulls the full image into one
// aligned buffer (geometric growth, so a lying header cannot force a
// huge allocation — unless sizeHint, from Load's stat of a real file,
// already vouches for the size, in which case exactly one allocation)
// and runs the full-validation parse.
func readIndexV3(br io.Reader, first8 []byte, sizeHint int64) (*Index, error) {
	head := make([]byte, gri3HeaderLen)
	copy(head, first8)
	if _, err := io.ReadFull(br, head[len(first8):]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	h, err := parseGRI3Header(head)
	if err != nil {
		return nil, err
	}
	if sizeHint > 0 && uint64(sizeHint) != h.fileSize {
		return nil, fmt.Errorf("%w: file is %d bytes, header says %d", ErrBadIndexFile, sizeHint, h.fileSize)
	}
	data, err := readGRI3Body(br, head, h.fileSize, sizeHint > 0)
	if err != nil {
		return nil, err
	}
	e, dim, err := parseGRI3Image(data, true)
	if err != nil {
		return nil, err
	}
	ix := &Index{dim: dim, format: formatGRI3, fr: flight.New(0)}
	ix.cur.Store(e)
	return ix, nil
}

// readGRI3Body assembles the full file image on the heap, head first.
func readGRI3Body(br io.Reader, head []byte, fileSize uint64, trusted bool) ([]byte, error) {
	total := int(fileSize)
	if trusted {
		data := vec.AlignedBytes(total)
		copy(data, head)
		if _, err := io.ReadFull(br, data[len(head):]); err != nil {
			return nil, fmt.Errorf("%w: truncated image: %v", ErrBadIndexFile, err)
		}
		return data, nil
	}
	data := vec.AlignedBytes(min(total, 512<<10))
	copy(data, head)
	got := len(head)
	for got < total {
		if got == len(data) {
			grown := vec.AlignedBytes(min(total, 2*len(data)))
			copy(grown, data)
			data = grown
		}
		n, err := io.ReadFull(br, data[got:])
		got += n
		if err != nil {
			return nil, fmt.Errorf("%w: truncated image: %v", ErrBadIndexFile, err)
		}
	}
	return data, nil
}
