package answers

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzCacheKey drives the registry's key construction and the dominance
// gate cached entries are dropped by, with arbitrary — including non-finite and boundary — (q, k)
// inputs, asserting the two properties correctness hangs on:
//
//  1. Key isolation: a lookup with a query that is not bitwise
//     identical to the stored one (or with a different k or kind) never
//     hits, so corrupted keys cannot alias a foreign answer.
//  2. No stale hit: after a product mutation with row p, the stored
//     entry survives if and only if p dominates the stored query
//     componentwise (p[j] >= q[j] for all j, the DESIGN.md §12
//     predicate). NaN anywhere must land on the invalidation side.
//
// And throughout: no panic, whatever the bytes decode to.
func FuzzCacheKey(f *testing.F) {
	f.Add(seedBytes(2, 5, []float64{0.6, 0.7}, []float64{0.2, 0.3}, []float64{0.9, 0.9}))
	f.Add(seedBytes(3, 1, []float64{0, 0, 0}, []float64{0, 0, 0}, []float64{0, 0, 0}))
	f.Add(seedBytes(1, -4, []float64{math.Inf(1)}, []float64{math.NaN()}, []float64{-0.0}))
	f.Add(seedBytes(4, 1<<30, []float64{1e300, -1e300, 0.5, 2}, []float64{0.5, 0.5, 0.5, 0.5}, []float64{math.NaN(), 1, 1, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, k, q, q2, row, ok := decodeFuzzInput(data)
		if !ok {
			return
		}
		c := newCache(4)
		answer := topK(0, 2, 5)
		c.Store(KindTopK, k, q, 1, answer)
		c.Store(KindKRanks, k, q, 1, []Member{{Pref: 1, Rank: 0}})

		// Key isolation: a bitwise-different query must miss.
		if !sameBits(q, q2) {
			if _, _, hit := c.Lookup(KindTopK, k, q2); hit {
				t.Fatalf("foreign hit: q2=%v aliased q=%v", q2, q)
			}
		}
		if _, _, hit := c.Lookup(KindTopK, k+1, q); hit {
			t.Fatalf("hit for wrong k")
		}

		// The stored query must hit, and with the stored answer.
		got, _, hit := c.Lookup(KindTopK, k, q)
		if !hit {
			t.Fatalf("stored query missed: q=%v k=%d", q, k)
		}
		if len(got) != len(answer) {
			t.Fatalf("hit returned %v, stored %v", got, answer)
		}

		// Invalidation predicate: survive iff row dominates q. The
		// snapshot has no rank machinery: a product install must not
		// evaluate any rank for a cached entry.
		c.Publish(Snapshot{Seq: 2}, Change{Op: InsertProduct, Row: row})
		_, _, hit = c.Lookup(KindTopK, k, q)
		if want := dominates(row, q); hit != want {
			t.Fatalf("after mutation row=%v q=%v: hit=%v, want %v", row, q, hit, want)
		}
		_, _, hit2 := c.Lookup(KindKRanks, k, q)
		if hit2 != hit {
			t.Fatalf("kinds disagree on invalidation: topk=%v kranks=%v", hit, hit2)
		}
	})
}

// dominates is the reference predicate: row keeps the entry iff every
// component is >= the query's (NaN compares false, so it invalidates).
func dominates(row, q []float64) bool {
	if len(row) != len(q) {
		return false
	}
	for j := range row {
		if !(row[j] >= q[j]) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeFuzzInput carves data into a dimensionality d in [1, 8], a k,
// and three d-dimensional vectors (stored query, probe query, mutated
// row) from the raw float64 bit patterns — NaNs, infinities and
// subnormals included.
func decodeFuzzInput(data []byte) (d, k int, q, q2, row []float64, ok bool) {
	if len(data) < 2+8 {
		return 0, 0, nil, nil, nil, false
	}
	d = int(data[0]%8) + 1
	k = int(int8(data[1]))
	data = data[2:]
	if len(data) < 3*8*d {
		return 0, 0, nil, nil, nil, false
	}
	vec := func() []float64 {
		v := make([]float64, d)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		data = data[8*d:]
		return v
	}
	return d, k, vec(), vec(), vec(), true
}

// seedBytes encodes a corpus seed in decodeFuzzInput's format.
func seedBytes(d, k int, q, q2, row []float64) []byte {
	b := []byte{byte(d - 1), byte(k)}
	for _, v := range [][]float64{q, q2, row} {
		for i := 0; i < d; i++ {
			var x float64
			if i < len(v) {
				x = v[i]
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			b = append(b, buf[:]...)
		}
	}
	return b
}
