package gridrank

// BenchmarkGIRTraceOverhead prices the tracing instrumentation on the
// query path (picked up by scripts/bench.sh's BenchmarkGIR filter, so
// the numbers are tracked in BENCH_gir.json):
//
//   - off:     a nil trace, i.e. every instrumented call site paying the
//     nil-receiver check. This is what an unsampled query costs.
//   - sampled: a rate-1 tracer recording the full span tree, the worst
//     case a traced query pays.

import (
	"context"
	"testing"

	"gridrank/internal/algo"
	"gridrank/internal/trace"
)

func BenchmarkGIRTraceOverhead(b *testing.B) {
	data := makeBenchData(b, 4000, 1000, 6)
	gir := algo.NewGIR(data.P, data.W, DefaultRange, 32)
	ctx := context.Background()

	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gir.ReverseKRanksOpts(ctx, data.q, 100, algo.QueryOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled", func(b *testing.B) {
		tracer := trace.New(trace.Config{SampleRate: 1, Capacity: 4})
		for i := 0; i < b.N; i++ {
			tr := tracer.Start("bench", trace.Parent{})
			if _, _, err := gir.ReverseKRanksOpts(ctx, data.q, 100, algo.QueryOpts{Trace: tr}); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
		}
	})
}
