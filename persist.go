package gridrank

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"gridrank/internal/algo"
	"gridrank/internal/bits"
	"gridrank/internal/dataset"
	"gridrank/internal/flight"
	"gridrank/internal/vec"
)

// Three index file formats exist, all little endian. Save and WriteTo
// emit version 3 (GRI3), the zero-copy layout documented in gri3.go:
// every scan artifact stored page-aligned and checksummed, so Load
// reassembles the index without rebuilding anything and LoadMmap serves
// straight from the mapped file.
//
// Versions 1 and 2 store only the authoritative data sets (header, two
// dataset binary blocks, and for version 2 an optional packed-rows
// section) and rebuild the grid artifacts on load:
//
//	magic       uint32  'G''R''I''1' / 'G''R''I''2'
//	n           uint32  grid partitions
//	packedBits  uint32  version 2 only: 0 = unpacked, 4..8 = packed width
//	rangeP      float64
//	products     dataset binary block
//	preferences  dataset binary block
//	packed P^(A) rows (bits.PackedRows block)   — v2, when packedBits > 0
//
// Both load transparently (a version-2 packed section is verified
// byte-for-byte against the rebuilt cells at its stored width) and
// re-save as version 3. Like every index, a loaded one scans packed rows
// at the width its grid size derives, whatever width (if any) the file
// stored.
//
// A mutated index persists exactly like a fresh build over the same data:
// the mutation paths maintain rangeP with New's derivation (see
// computeRangeP), and the GRI3 writer re-canonicalizes the weight axis
// and group numbering when mutations let them drift (see
// canonicalArtifacts), so Save after any insert/delete sequence produces
// a file byte-identical to Save of New(current data) over the same grid
// size.

const (
	indexMagicV1 = 0x31495247 // "GRI1"
	indexMagic   = 0x32495247 // "GRI2"
	// indexMagicV3 ("GRI3") lives in gri3.go with its format.
)

// Format names reported by Index.Format.
const (
	formatGRI1 = "GRI1"
	formatGRI2 = "GRI2"
	formatGRI3 = "GRI3"
)

// ErrBadIndexFile reports a corrupt or foreign index file.
var ErrBadIndexFile = errors.New("gridrank: bad index file")

// countingWriter tracks every byte reaching the underlying writer, so
// WriteTo can honor the io.WriterTo contract (return the full count, not
// just the last unbuffered write) while still buffering the stream.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the index in the current (GRI3) format. It
// serializes one epoch snapshot: concurrent mutations never tear the
// written file. The returned count is the total number of bytes written
// to w, per the io.WriterTo contract.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	return writeGRI3(w, ix.snap(), ix.dim)
}

// ReadIndex deserializes an index written by WriteTo — any format
// version. GRI3 streams reassemble with full validation; version 1 and
// 2 streams rebuild the Grid-index and approximate vectors from the
// stored data sets.
func ReadIndex(r io.Reader) (*Index, error) {
	return readIndexSized(r, 0)
}

// readIndexSized is ReadIndex with an optional trusted total stream
// size (from Load's stat), which lets the GRI3 reader allocate its
// image buffer exactly once.
func readIndexSized(r io.Reader, sizeHint int64) (*Index, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 4+4)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	packedBits := 0
	format := formatGRI1
	var rangeP float64
	switch magic {
	case indexMagicV3:
		return readIndexV3(br, hdr, sizeHint)
	case indexMagicV1:
		// Version 1: no layout field, no packed section. The next Save
		// writes version 3.
		var raw [8]byte
		if _, err := io.ReadFull(br, raw[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
		}
		rangeP = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	case indexMagic:
		format = formatGRI2
		var raw [12]byte
		if _, err := io.ReadFull(br, raw[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
		}
		packedBits = int(binary.LittleEndian.Uint32(raw[0:]))
		rangeP = math.Float64frombits(binary.LittleEndian.Uint64(raw[4:]))
		if packedBits != 0 && (packedBits < algo.MinPackedBits || packedBits > algo.MaxPackedBits) {
			return nil, fmt.Errorf("%w: implausible packed width %d", ErrBadIndexFile, packedBits)
		}
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadIndexFile)
	}
	if n < 1 || n > 256 {
		return nil, fmt.Errorf("%w: implausible partition count %d", ErrBadIndexFile, n)
	}
	if packedBits != 0 && 1<<packedBits < n {
		return nil, fmt.Errorf("%w: packed width %d cannot encode %d partitions", ErrBadIndexFile, packedBits, n)
	}
	if rangeP <= 0 || math.IsNaN(rangeP) || math.IsInf(rangeP, 0) {
		return nil, fmt.Errorf("%w: implausible range %v", ErrBadIndexFile, rangeP)
	}
	// The data sets decode straight into the matrices' flat backing
	// arrays (one allocation per set, no per-row copies).
	pset, err := dataset.ReadBinaryFlat(br)
	if err != nil {
		return nil, fmt.Errorf("%w: products: %v", ErrBadIndexFile, err)
	}
	wset, err := dataset.ReadBinaryFlat(br)
	if err != nil {
		return nil, fmt.Errorf("%w: preferences: %v", ErrBadIndexFile, err)
	}
	if pset.Dim != wset.Dim {
		return nil, fmt.Errorf("%w: dimension mismatch %d vs %d", ErrBadIndexFile, pset.Dim, wset.Dim)
	}
	// An index is never built over an empty side (New rejects it, and
	// mutations refuse to delete the last element), so an empty data set
	// here is corruption, not a degenerate-but-valid file.
	if pset.Count() == 0 || wset.Count() == 0 {
		return nil, fmt.Errorf("%w: empty data set", ErrBadIndexFile)
	}
	pset.Range = rangeP
	if err := pset.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	if err := wset.ValidateWeights(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	// Same contiguous layout as New: one backing array per set, shared by
	// the index views and the algorithm.
	pm := vec.MatrixFromFlat(pset.Data, pset.Dim)
	wm := vec.MatrixFromFlat(wset.Data, wset.Dim)
	gir := algo.NewGIRFromMatrices(pm, wm, rangeP, n)
	if packedBits > 0 {
		// The stored packed section must match the cells rebuilt from the
		// data sections exactly: a mismatch means some section was
		// corrupted in a way its own framing checks missed.
		stored, err := bits.ReadRows(br)
		if err != nil {
			return nil, fmt.Errorf("%w: packed rows: %v", ErrBadIndexFile, err)
		}
		if stored.BitsPerDim() != packedBits {
			return nil, fmt.Errorf("%w: packed section width %d, header says %d",
				ErrBadIndexFile, stored.BitsPerDim(), packedBits)
		}
		if !stored.Equal(gir.PointCells().PackRows(packedBits)) {
			return nil, fmt.Errorf("%w: packed rows disagree with rebuilt cells", ErrBadIndexFile)
		}
	}
	ix := &Index{dim: pset.Dim, format: format, fr: flight.New(0)}
	ix.cur.Store(&epoch{
		pm:     pm,
		wm:     wm,
		rangeP: rangeP,
		gir:    gir,
	})
	return ix, nil
}

// fsyncDir makes the directory entries of dir durable — the second half
// of an atomic replace-by-rename (the rename itself only becomes
// crash-safe once the directory block holding it reaches the disk). A
// package variable so the save tests can observe and fail it.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Save writes the index to the named file, atomically and durably: the
// bytes go to a temporary file in the same directory, are fsynced, the
// temporary file is renamed over path only once it is complete, and the
// containing directory is fsynced so the rename itself survives a
// crash. A crash, full disk, or write error part-way through never
// leaves path truncated or torn — an existing good index stays intact.
func (ix *Index) Save(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(e error) error {
		f.Close()
		os.Remove(tmp)
		return e
	}
	if _, err := ix.WriteTo(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// CreateTemp opens 0600; match the permissions os.Create would have
	// given a directly written file.
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return fsyncDir(dir)
}

// Load reads an index from the named file onto the heap. Memory-mapped
// serving is available through LoadMmap.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hint int64
	if st, err := f.Stat(); err == nil {
		hint = st.Size()
	}
	return readIndexSized(f, hint)
}

// Format returns the on-disk format version the index was loaded from
// ("GRI1", "GRI2" or "GRI3"); a freshly built index reports "GRI3", the
// version Save writes.
func (ix *Index) Format() string {
	if ix.format == "" {
		return formatGRI3
	}
	return ix.format
}

// Resident reports where the index's arrays live: "mmap" when they are
// views over a memory-mapped index file (LoadMmap, or after a
// Checkpoint), "heap" otherwise.
func (ix *Index) Resident() string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.mapped) > 0 {
		return "mmap"
	}
	return "heap"
}

// Close releases the memory mappings of a LoadMmap-opened (or
// checkpointed) index. The index must not be used afterwards — epochs
// alias the mapped file. Heap-resident indexes need no Close; on them
// it is a no-op.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var first error
	for _, m := range ix.mapped {
		if err := munmap(m); err != nil && first == nil {
			first = err
		}
	}
	ix.mapped = nil
	return first
}

// checkpointLoad remaps the just-saved checkpoint file. A package
// variable so the failure-path tests can inject a remap error and
// assert the index keeps serving its old epoch untouched.
var checkpointLoad = LoadMmap

// Checkpoint saves the current epoch to path (atomically and durably,
// like Save) and republishes the index from a mapping of the newly
// written file: subsequent queries serve from page-cache-backed memory
// and the process's private copy of the data becomes collectable. The
// answer cache stays valid — the published epoch holds bit-identical
// data under the same epoch number, and answers are proven independent
// of the group renumbering a save may perform. Mutations, queries and
// Checkpoint may interleave freely; on platforms without memory
// mapping the index republishes from a heap reload instead.
//
// Failure is clean at every stage. A failed Save removes its own
// temporary file and never touches path (and a post-rename fsync
// failure leaves path holding the complete new file). A failed remap
// returns with the index untouched: the current epoch, its mappings
// and the answer cache all keep serving — existing mappings are never
// unmapped here at all (in-flight queries may hold epochs backed by
// them; only Close unmaps, when the caller asserts nothing is). The
// saved file remains either way — it is complete and durable, so a
// later Load/Checkpoint can use it.
func (ix *Index) Checkpoint(path string) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	seq := ix.snap().seq
	if err := ix.Save(path); err != nil {
		return err
	}
	m, err := checkpointLoad(path)
	if err != nil {
		return fmt.Errorf("gridrank: checkpoint remap: %w", err)
	}
	ne := m.snap()
	ne.seq = seq // same data, same epoch: cached answers stay valid
	// Adopt the new mapping before the swap; the old mappings stay —
	// published epochs alias them until Close.
	ix.mapped = append(ix.mapped, m.mapped...)
	ix.cur.Store(ne)
	return nil
}

// Products returns the indexed product vectors of the current epoch. The
// slice is the index's own storage; callers must not modify it.
func (ix *Index) Products() []Vector { return ix.snap().pm.Rows() }

// Preferences returns the indexed preference vectors of the current
// epoch (not to be modified).
func (ix *Index) Preferences() []Vector { return ix.snap().wm.Rows() }

// Product returns a copy of product i.
func (ix *Index) Product(i int) (Vector, error) {
	pm := ix.snap().pm
	if i < 0 || i >= pm.Len() {
		return nil, fmt.Errorf("gridrank: product index %d out of range [0, %d)", i, pm.Len())
	}
	return vec.Clone(pm.Row(i)), nil
}
