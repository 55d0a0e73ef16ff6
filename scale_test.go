package gridrank

// Scale smoke and load benchmarks for the mmap serving path. The smoke
// is env-gated (it builds a ≥1M-row catalog) and run by the CI
// scale-smoke job; the benchmarks feed scripts/bench.sh → BENCH_gir.json.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// scaleIndexPath builds and saves a catalog of nP clustered products,
// returning the file path. Clustered data keeps the group count — and
// with it the structural-validation cost of a load — proportional to
// the cluster count rather than the row count, which is the realistic
// shape for the catalogs mmap serving targets.
func scaleIndexPath(tb testing.TB, dir string, nP, nW, d int) string {
	tb.Helper()
	P, err := GenerateProducts(71, Clustered, nP, d)
	if err != nil {
		tb.Fatal(err)
	}
	W, err := GeneratePreferences(72, Uniform, nW, d)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := New(P, W, &Options{GridPartitions: 32})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("scale-%d.gri3", nP))
	if err := ix.Save(path); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestScaleSmokeMmap is the acceptance gate for the mmap loader: on a
// ≥1M-row catalog, LoadMmap must publish a queryable index in under
// 10ms and at least 100× faster than the heap loader reading the same
// file, with identical answers. Gated behind GRIDRANK_SCALE_SMOKE=1
// because building the catalog takes tens of seconds; the CI
// scale-smoke job sets it.
func TestScaleSmokeMmap(t *testing.T) {
	if os.Getenv("GRIDRANK_SCALE_SMOKE") == "" {
		t.Skip("set GRIDRANK_SCALE_SMOKE=1 to run the 1M-row mmap smoke")
	}
	path := scaleIndexPath(t, t.TempDir(), 1<<20, 2048, 6)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("catalog: %d rows, %.1f MiB on disk", 1<<20, float64(st.Size())/(1<<20))

	heapStart := time.Now()
	heap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	heapLoad := time.Since(heapStart)

	best := time.Duration(1 << 62)
	var mm *Index
	for i := 0; i < 3; i++ {
		if mm != nil {
			mm.Close()
		}
		start := time.Now()
		mm, err = LoadMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	defer mm.Close()
	t.Logf("heap load %v, mmap load %v (best of 3, %.0fx)", heapLoad, best, float64(heapLoad)/float64(best))
	if !canMmap() {
		t.Skip("no mmap on this platform; latency gate not applicable")
	}
	if best >= 10*time.Millisecond {
		t.Errorf("mmap load took %v, want <10ms", best)
	}
	if heapLoad < 100*best {
		t.Errorf("mmap load only %.1fx faster than heap (%v vs %v), want ≥100x",
			float64(heapLoad)/float64(best), best, heapLoad)
	}

	q := mm.Products()[1<<19]
	qStart := time.Now()
	got, err := mm.ReverseKRanksCtx(context.Background(), q, 25)
	if err != nil {
		t.Fatal(err)
	}
	qDur := time.Since(qStart)
	t.Logf("reverse k-ranks over mmap: %v", qDur)
	if qDur > 30*time.Second {
		t.Errorf("query over mmap index took %v, want <30s", qDur)
	}
	want, err := heap.ReverseKRanksCtx(context.Background(), q, 25)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Error("heap and mmap answers diverge at scale")
	}
}

// benchLoadPath caches one saved catalog per benchmark binary run.
var benchLoadPath string

func benchSavedIndex(b *testing.B) string {
	b.Helper()
	if benchLoadPath == "" {
		dir, err := os.MkdirTemp("", "gridrank-bench-")
		if err != nil {
			b.Fatal(err)
		}
		nP := 50000
		if testing.Short() {
			nP = 10000
		}
		benchLoadPath = scaleIndexPath(b, dir, nP, 512, 6)
	}
	return benchLoadPath
}

// BenchmarkGIRIndexLoad measures the heap loader: one aligned read of
// the image plus full checksum and semantic validation. B/op tracks
// resident bytes per open index.
func BenchmarkGIRIndexLoad(b *testing.B) {
	path := benchSavedIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := Load(path)
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
}

// BenchmarkGIRIndexLoadMmap measures the zero-copy loader: header
// verification plus structural checks over mapped memory. B/op is the
// heap footprint of serving the file — the payload stays in the page
// cache.
func BenchmarkGIRIndexLoadMmap(b *testing.B) {
	path := benchSavedIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := LoadMmap(path)
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
}
