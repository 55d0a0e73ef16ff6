package gridrank

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"testing"
)

// FuzzReadIndex ensures the index parser never panics, rejects every
// malformed stream with ErrBadIndexFile (callers branch on it to tell
// corruption from I/O failures), and that parsed indexes answer queries
// without crashing.
func FuzzReadIndex(f *testing.F) {
	P, err := GenerateProducts(51, Uniform, 30, 3)
	if err != nil {
		f.Fatal(err)
	}
	W, err := GeneratePreferences(52, Uniform, 10, 3)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := New(P, W, &Options{GridPartitions: 8})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := ix.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:20])
	f.Add([]byte("GRI1aaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
	// Every truncation of the header region.
	for cut := 1; cut < 16; cut++ {
		f.Add(valid.Bytes()[:cut])
	}
	// Corrupt GRI3 header fields on an otherwise valid stream: magic,
	// grid partitions (0 and absurd), packedBits (below the floor, above
	// the ceiling, absurd), a count field blown up.
	corrupt := func(off int, val uint32) []byte {
		b := append([]byte(nil), valid.Bytes()...)
		binary.LittleEndian.PutUint32(b[off:], val)
		return b
	}
	f.Add(corrupt(0, 0))
	f.Add(corrupt(0, 0x31495248))
	f.Add(corrupt(4, 0))
	f.Add(corrupt(4, 1<<30))
	f.Add(corrupt(8, 3))
	f.Add(corrupt(8, 9))
	f.Add(corrupt(8, 1<<20))
	f.Add(corrupt(24, ^uint32(0)))
	b := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint64(b[56:], ^uint64(0)) // NaN rangeP
	f.Add(b)
	// Structure-aware GRI3 seeds: truncated at the section table, a
	// tampered table entry (header CRC mismatch), a misaligned section
	// offset and a stretched fileSize with the header CRC re-signed so
	// rejection must come from the canonical-layout equality, a section
	// payload flip (section CRC mismatch), nonzero inter-section padding,
	// and a truncated final section.
	resign := func(b []byte) []byte {
		sc := int(binary.LittleEndian.Uint32(b[16:]))
		crc := crc64.New(gri3CRC)
		crc.Write(b[:80])
		crc.Write(b[gri3HeaderLen : gri3HeaderLen+gri3EntryLen*sc])
		binary.LittleEndian.PutUint64(b[80:], crc.Sum64())
		return b
	}
	f.Add(valid.Bytes()[:gri3HeaderLen])
	f.Add(valid.Bytes()[:gri3HeaderLen+gri3EntryLen*5])
	b = append([]byte(nil), valid.Bytes()...)
	b[gri3HeaderLen+8] ^= 0x44 // first section's offset, CRC not re-signed
	f.Add(b)
	b = append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint64(b[gri3HeaderLen+8:], gri3Align*3)
	f.Add(resign(b))
	b = append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint64(b[72:], binary.LittleEndian.Uint64(b[72:])+gri3Align)
	f.Add(resign(b))
	b = append([]byte(nil), valid.Bytes()...)
	b[gri3Align+5] ^= 0x01 // inside the first payload
	f.Add(b)
	b = append([]byte(nil), valid.Bytes()...)
	b[gri3Align-1] = 0xAA // padding byte before the first section
	f.Add(b)
	f.Add(valid.Bytes()[:valid.Len()-7])
	// A wider grid (64 partitions, packed width 6) plus blind flips
	// landing in its packed-rows section: rejection must come from a
	// section CRC or the padding rule.
	wix, err := New(P, W, &Options{GridPartitions: 64})
	if err != nil {
		f.Fatal(err)
	}
	var wide bytes.Buffer
	if _, err := wix.WriteTo(&wide); err != nil {
		f.Fatal(err)
	}
	wh, err := parseGRI3Header(wide.Bytes()[:gri3HeaderLen])
	if err != nil {
		f.Fatal(err)
	}
	wsecs, _ := wh.layout()
	packedOff := int(wsecs[secPackedRows-1].offset)
	f.Add(wide.Bytes())
	f.Add(wide.Bytes()[:packedOff]) // section truncated away
	f.Add(wide.Bytes()[:wide.Len()-3])
	for _, off := range []int{0, 8, 16, 40} {
		b := append([]byte(nil), wide.Bytes()...)
		b[packedOff+off] ^= 0x11
		f.Add(b)
	}
	// Header claims no packed rows over a packed image: the canonical
	// layout then expects one section fewer than the table holds.
	b = append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(b[8:], 0)
	f.Add(b)
	// A legacy GRI3 file written without packed rows loads by re-packing.
	legacy, err := os.ReadFile(legacyUnpackedFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadIndexFile) {
				t.Fatalf("ReadIndex error %v does not wrap ErrBadIndexFile", err)
			}
			return
		}
		// A successfully parsed index must answer queries.
		q := got.Products()[0]
		if _, err := got.ReverseKRanksCtx(context.Background(), q, 1); err != nil {
			t.Fatalf("parsed index cannot query: %v", err)
		}
	})
}
