package gridrank

// GRI3 persistence tests: the heap/mmap equivalence harness the
// acceptance criteria call for, the durability and allocation
// regression tests, format migration, and structure-aware corruption
// rejection (complementing FuzzReadIndex's blind mutations).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gridrank/internal/dataset"
)

// canMmap reports whether LoadMmap actually maps on this platform (the
// stub falls back to the heap loader).
func canMmap() bool { return runtime.GOOS == "linux" || runtime.GOOS == "darwin" }

// The legacy fixtures are GRI3 files written before the packed width
// was derived from the grid, both holding gri3Index(t, 16)'s data and
// grid: one with packedBits = 0 (no packed-rows section), one packed at
// 6 bits where the 16-partition grid derives 4.
const (
	legacyUnpackedFixture = "testdata/legacy_unpacked.gri3"
	legacyWidth6Fixture   = "testdata/legacy_width6.gri3"
)

// gri3Index builds a small index over an n-partition grid, saved and
// reloaded by most tests in this file.
func gri3Index(t testing.TB, n int) *Index {
	t.Helper()
	P, err := GenerateProducts(31, Clustered, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(32, Uniform, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{GridPartitions: n})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestHeapMmapEquivalence is the extended persistence harness of the
// acceptance criteria: for every packed width a file can store, the
// heap-loaded and mmap-loaded views of the file must answer
// byte-identically to each other and to a fresh build over the same
// data, at every worker count. Widths 4 through 8 are the grid sizes 16
// through 256 that derive them; width 0 is the legacy fixture written
// without packed rows, which both loaders re-pack at the derived width.
// It runs under -race in CI (root package race pass).
func TestHeapMmapEquivalence(t *testing.T) {
	for _, width := range []int{0, 4, 5, 6, 7, 8} {
		t.Run(fmt.Sprintf("bits=%d", width), func(t *testing.T) {
			n, path := 1<<width, legacyUnpackedFixture
			if width == 0 {
				n = 16
			}
			ix := gri3Index(t, n)
			if width != 0 {
				path = filepath.Join(t.TempDir(), "ix.gri3")
				if err := ix.Save(path); err != nil {
					t.Fatal(err)
				}
			}
			heap, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			mm, err := LoadMmap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			if heap.Format() != "GRI3" || mm.Format() != "GRI3" {
				t.Fatalf("formats %q/%q, want GRI3", heap.Format(), mm.Format())
			}
			if heap.Resident() != "heap" {
				t.Fatalf("heap load resident %q", heap.Resident())
			}
			if canMmap() && mm.Resident() != "mmap" {
				t.Fatalf("mmap load resident %q", mm.Resident())
			}
			for name, l := range map[string]*Index{"heap": heap, "mmap": mm} {
				if lay := l.Layout(); lay != ix.Layout() || lay.BitsPerDim != max(width, 4) {
					t.Fatalf("%s layout %+v, fresh build %+v", name, lay, ix.Layout())
				}
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for _, qi := range []int{0, 123, 299} {
					q := ix.Products()[qi]
					wantKR, err := ix.ReverseKRanksCtx(context.Background(), q, 9, WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					wantTK, err := ix.ReverseTopKCtx(context.Background(), q, 9, WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					for name, l := range map[string]*Index{"heap": heap, "mmap": mm} {
						gotKR, err := l.ReverseKRanksCtx(context.Background(), q, 9, WithWorkers(workers))
						if err != nil {
							t.Fatal(err)
						}
						gotTK, err := l.ReverseTopKCtx(context.Background(), q, 9, WithWorkers(workers))
						if err != nil {
							t.Fatal(err)
						}
						if fmt.Sprintf("%+v/%+v", gotKR, gotTK) != fmt.Sprintf("%+v/%+v", wantKR, wantTK) {
							t.Fatalf("width %d, workers %d, q %d, %s: answers diverge",
								width, workers, qi, name)
						}
					}
				}
			}
		})
	}
}

// TestMmapIndexMutatesAndCheckpoints: copy-on-write epochs layer over a
// mapped snapshot exactly as over a heap one — same answers, same
// re-serialization — and Checkpoint republishes the index from the
// newly written file without disturbing the epoch counter.
func TestMmapIndexMutatesAndCheckpoints(t *testing.T) {
	ix := gri3Index(t, 16)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.gri3")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	mm, err := LoadMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	heap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(x *Index) {
		if _, err := x.InsertProduct(Vector{0.5, 0.25, 0.75, 0.1}); err != nil {
			t.Fatal(err)
		}
		if err := x.DeleteProduct(7); err != nil {
			t.Fatal(err)
		}
		if _, err := x.InsertPreference(Vector{0.4, 0.3, 0.2, 0.1}); err != nil {
			t.Fatal(err)
		}
		if err := x.DeletePreference(3); err != nil {
			t.Fatal(err)
		}
	}
	mutate(mm)
	mutate(heap)
	var a, b bytes.Buffer
	if _, err := mm.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := heap.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("mutated mmap index serializes differently from its heap twin")
	}

	q := mm.Products()[11]
	want, err := mm.ReverseKRanksCtx(context.Background(), q, 6)
	if err != nil {
		t.Fatal(err)
	}
	seq := mm.Epoch()
	ckpt := filepath.Join(dir, "ckpt.gri3")
	if err := mm.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if mm.Epoch() != seq {
		t.Fatalf("Checkpoint moved the epoch %d → %d", seq, mm.Epoch())
	}
	if canMmap() && mm.Resident() != "mmap" {
		t.Fatalf("post-checkpoint resident %q", mm.Resident())
	}
	got, err := mm.ReverseKRanksCtx(context.Background(), q, 6)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("Checkpoint changed answers: %+v vs %+v", got, want)
	}
	// The checkpoint file is a complete, loadable index.
	re, err := Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumProducts() != mm.NumProducts() || re.NumPreferences() != mm.NumPreferences() {
		t.Fatal("checkpoint file lost elements")
	}
}

// TestSaveSyncsDirectory pins the durability half of the atomic save
// (alongside TestSaveIsAtomic, which pins atomicity): after the rename,
// Save fsyncs the containing directory, and a failing directory sync
// surfaces as the call's error.
func TestSaveSyncsDirectory(t *testing.T) {
	ix := persistIndex(t)
	dir := t.TempDir()
	orig := fsyncDir
	defer func() { fsyncDir = orig }()
	var synced []string
	fsyncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	if err := ix.Save(filepath.Join(dir, "ix.gri3")); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("directory syncs = %v, want exactly [%s]", synced, dir)
	}
	boom := errors.New("sync failed")
	fsyncDir = func(string) error { return boom }
	if err := ix.Save(filepath.Join(dir, "ix.gri3")); !errors.Is(err, boom) {
		t.Fatalf("Save swallowed the directory sync failure: %v", err)
	}
}

// TestLoadAllocationCounts pins the O(1)-allocations load paths: the
// heap loader reads the image into one aligned buffer (no per-row
// allocations — the former double-copy through dataset.ReadBinary paid
// one allocation per row), and the mmap loader allocates only views.
// Allocation counts must not scale with the element count.
func TestLoadAllocationCounts(t *testing.T) {
	saved := func(nP int) string {
		t.Helper()
		P, err := GenerateProducts(41, Clustered, nP, 4)
		if err != nil {
			t.Fatal(err)
		}
		W, err := GeneratePreferences(42, Uniform, 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := New(P, W, &Options{GridPartitions: 16})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("ix-%d.gri3", nP))
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	small, big := saved(512), saved(4096)
	for name, open := range map[string]func(string) (*Index, error){"Load": Load, "LoadMmap": LoadMmap} {
		measure := func(path string) float64 {
			return testing.AllocsPerRun(10, func() {
				ix, err := open(path)
				if err != nil {
					t.Fatal(err)
				}
				ix.Close()
			})
		}
		at1, at8 := measure(small), measure(big)
		// 8× the rows must not mean more allocations; allow a little
		// noise, nothing near the +3584 a per-row scheme would add.
		if at8 > at1+32 {
			t.Errorf("%s allocations scale with rows: %.0f at 512 rows, %.0f at 4096", name, at1, at8)
		}
	}
}

// requireMigrated checks a legacy file through both loaders: each must
// report format, answer byte-identically to fresh (a new build over the
// same data) at one and four workers, scan at the derived width, and
// re-save byte-identical to fresh's GRI3.
func requireMigrated(t *testing.T, path, format string, fresh *Index) {
	t.Helper()
	var want bytes.Buffer
	if _, err := fresh.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(string) (*Index, error){"Load": Load, "LoadMmap": LoadMmap} {
		got, err := open(path)
		if err != nil {
			t.Fatalf("%s rejected the %s file: %v", name, format, err)
		}
		defer got.Close()
		if got.Format() != format {
			t.Fatalf("%s: format %q, want %q", name, got.Format(), format)
		}
		if lay := got.Layout(); lay != fresh.Layout() {
			t.Fatalf("%s: layout %+v, want the derived %+v", name, lay, fresh.Layout())
		}
		for _, qi := range []int{0, 77, 299} {
			q := fresh.Products()[qi]
			for _, workers := range []int{1, 4} {
				wantKR, _ := fresh.ReverseKRanksCtx(context.Background(), q, 7, WithWorkers(workers))
				wantTK, _ := fresh.ReverseTopKCtx(context.Background(), q, 7, WithWorkers(workers))
				gotKR, err := got.ReverseKRanksCtx(context.Background(), q, 7, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				gotTK, err := got.ReverseTopKCtx(context.Background(), q, 7, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprintf("%+v/%+v", gotKR, gotTK) != fmt.Sprintf("%+v/%+v", wantKR, wantTK) {
					t.Fatalf("%s: q %d workers %d: answers diverge from a fresh build", name, qi, workers)
				}
			}
		}
		var resaved bytes.Buffer
		if _, err := got.WriteTo(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), want.Bytes()) {
			t.Fatalf("%s: re-saved %s index is not byte-identical to the fresh GRI3 stream", name, format)
		}
	}
}

// TestMigrationGRI2 hand-constructs a version-2 stream packed at width 6
// the way the original writer produced it — wider than the 4 bits
// gri3Index's 16-partition grid derives — and proves both loaders accept
// it, scan at the derived width, answer like a fresh build and re-save
// byte-identical to its GRI3 — the v2 half of the migration matrix
// (layout_test.go covers v1).
func TestMigrationGRI2(t *testing.T) {
	ix := gri3Index(t, 16)
	e := ix.snap()
	var v2 bytes.Buffer
	hdr := make([]byte, 4+4+4+8)
	binary.LittleEndian.PutUint32(hdr[0:], indexMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ix.GridPartitions()))
	binary.LittleEndian.PutUint32(hdr[8:], 6)
	binary.LittleEndian.PutUint64(hdr[12:], math.Float64bits(e.rangeP))
	v2.Write(hdr)
	if err := dataset.WriteBinary(&v2, &dataset.Dataset{Dim: ix.Dim(), Range: e.rangeP, Points: ix.Products()}); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteBinary(&v2, &dataset.Dataset{Dim: ix.Dim(), Range: 1, Points: ix.Preferences()}); err != nil {
		t.Fatal(err)
	}
	if err := e.gir.PointCells().PackRows(6).Write(&v2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v2.gri")
	if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if ix.Layout().BitsPerDim != 4 {
		t.Fatalf("16-partition grid derives %d bits, want 4", ix.Layout().BitsPerDim)
	}
	requireMigrated(t, path, "GRI2", ix)
}

// TestMigrationLegacyGRI3 loads the committed legacy fixtures — GRI3
// files stored unpacked and at a non-derived width — through both
// loaders, which re-pack their rows on the heap at the derived width.
func TestMigrationLegacyGRI3(t *testing.T) {
	fresh := gri3Index(t, 16)
	for _, tc := range []struct {
		path     string
		bits     int
		sections int
	}{
		{legacyUnpackedFixture, 0, secPackedRows - 1},
		{legacyWidth6Fixture, 6, secPackedRows},
	} {
		t.Run(fmt.Sprintf("bits=%d", tc.bits), func(t *testing.T) {
			raw, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			h, err := parseGRI3Header(raw[:gri3HeaderLen])
			if err != nil {
				t.Fatal(err)
			}
			if h.packedBits != tc.bits || h.sections != tc.sections {
				t.Fatalf("fixture header packedBits=%d sections=%d, want %d and %d",
					h.packedBits, h.sections, tc.bits, tc.sections)
			}
			requireMigrated(t, tc.path, "GRI3", fresh)
		})
	}
}

// TestGRI3RejectsCorruption drives structure-aware corruptions through
// the untrusted (heap) reader: every byte of a GRI3 file is covered by
// the header CRC, a section CRC, or the zero-padding rule, and layout
// lies are pinned by the canonical-offset equality — re-signing the
// header CRC must not let them through.
func TestGRI3RejectsCorruption(t *testing.T) {
	ix := gri3Index(t, 16)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	h, err := parseGRI3Header(valid[:gri3HeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	secs, _ := h.layout()
	resign := func(b []byte) []byte {
		crc := crc64.New(gri3CRC)
		crc.Write(b[:80])
		crc.Write(b[gri3HeaderLen : gri3HeaderLen+gri3EntryLen*h.sections])
		binary.LittleEndian.PutUint64(b[80:], crc.Sum64())
		return b
	}
	clone := func() []byte { return append([]byte(nil), valid...) }
	cases := map[string][]byte{
		"flipped header byte": func() []byte { b := clone(); b[25] ^= 0x10; return b }(),
		"flipped table byte":  func() []byte { b := clone(); b[gri3HeaderLen+9] ^= 0x10; return b }(),
		"moved section (resigned)": func() []byte {
			b := clone()
			off := binary.LittleEndian.Uint64(b[gri3HeaderLen+8:])
			binary.LittleEndian.PutUint64(b[gri3HeaderLen+8:], off+gri3Align)
			return resign(b)
		}(),
		"shrunk section (resigned)": func() []byte {
			b := clone()
			l := binary.LittleEndian.Uint64(b[gri3HeaderLen+16:])
			binary.LittleEndian.PutUint64(b[gri3HeaderLen+16:], l-8)
			return resign(b)
		}(),
		"swapped section id (resigned)": func() []byte {
			b := clone()
			binary.LittleEndian.PutUint32(b[gri3HeaderLen:], 2)
			return resign(b)
		}(),
		"file size lie (resigned)": func() []byte {
			b := clone()
			binary.LittleEndian.PutUint64(b[72:], h.fileSize+gri3Align)
			return resign(b)
		}(),
		"flipped payload byte": func() []byte {
			b := clone()
			b[secs[secPGMembers-1].offset+2] ^= 0x01
			return b
		}(),
		"nonzero padding": func() []byte {
			b := clone()
			b[secs[0].offset-1] = 0xAA
			return b
		}(),
		"truncated to table": clone()[:gri3HeaderLen+gri3EntryLen*h.sections],
		"truncated section":  clone()[:len(valid)-100],
	}
	for name, data := range cases {
		if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("%s: err = %v, want ErrBadIndexFile", name, err)
		}
	}

	// A stat-backed Load additionally pins the total file length.
	path := filepath.Join(t.TempDir(), "trailing.gri3")
	if err := os.WriteFile(path, append(clone(), 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrBadIndexFile) {
		t.Errorf("trailing garbage after image: Load err = %v, want ErrBadIndexFile", err)
	}

	// The validation split: a payload corruption that breaks no shape
	// invariant is caught by the untrusted reader's section CRCs but
	// deliberately trusted by the mmap reader (which stops at the header
	// CRC and structural checks) — while header corruption stops both.
	if canMmap() {
		flipped := clone()
		flipped[secs[secProducts-1].offset] ^= 0x01 // mantissa bit of one float
		pv := filepath.Join(t.TempDir(), "payload.gri3")
		if err := os.WriteFile(pv, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(pv); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("payload flip: heap Load err = %v, want ErrBadIndexFile", err)
		}
		mm, err := LoadMmap(pv)
		if err != nil {
			t.Errorf("payload flip: structural mmap load rejected it: %v", err)
		} else {
			mm.Close()
		}
		hv := filepath.Join(t.TempDir(), "header.gri3")
		bad := clone()
		bad[30] ^= 0x01
		if err := os.WriteFile(hv, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadMmap(hv); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("header flip: mmap load err = %v, want ErrBadIndexFile", err)
		}
	}
}
