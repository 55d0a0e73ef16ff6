package gridrank

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// Mutation-throughput benchmarks. The names start with BenchmarkGIR so
// scripts/bench.sh picks them up into the tracked BENCH_gir.json.
// Insert/delete pairs keep the index size constant across iterations,
// so ns/op is the steady-state cost of one mutation epoch, not a
// measurement of a growing index.

func mutationBenchIndex(b *testing.B, np, nw int) *Index {
	b.Helper()
	P, err := GenerateProducts(71, Uniform, np, 6)
	if err != nil {
		b.Fatal(err)
	}
	W, err := GeneratePreferences(72, Uniform, nw, 6)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := New(P, W, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkGIRMutationInsertDeleteProduct measures the derive path: the
// inserted attributes stay inside the existing rangeP, so each epoch
// reuses the grid and splices one cell group.
func BenchmarkGIRMutationInsertDeleteProduct(b *testing.B) {
	ix := mutationBenchIndex(b, 20000, 5000)
	rng := rand.New(rand.NewSource(73))
	p := make(Vector, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range p {
			p[j] = rng.Float64() * 50
		}
		id, err := ix.InsertProduct(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.DeleteProduct(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGIRMutationInsertDeletePreference measures the preference
// derive path (in-range weights, always-derive deletes).
func BenchmarkGIRMutationInsertDeletePreference(b *testing.B) {
	ix := mutationBenchIndex(b, 20000, 5000)
	rng := rand.New(rand.NewSource(74))
	w := make(Vector, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for j := range w {
			w[j] = 0.05 + rng.Float64()*0.1
			sum += w[j]
		}
		for j := range w {
			w[j] /= sum
		}
		id, err := ix.InsertPreference(w)
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.DeletePreference(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGIRMutationBatchInsertProducts measures the rebuild path:
// batches always rebuild the epoch once, amortized over the batch.
func BenchmarkGIRMutationBatchInsertProducts(b *testing.B) {
	if testing.Short() {
		b.Skip("rebuild benchmark skipped in short mode")
	}
	ix := mutationBenchIndex(b, 20000, 5000)
	rng := rand.New(rand.NewSource(75))
	batch := make([]Vector, 64)
	for i := range batch {
		v := make(Vector, 6)
		for j := range v {
			v[j] = rng.Float64() * 50
		}
		batch[i] = v
	}
	ids := make([]int, len(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first, err := ix.InsertProducts(batch)
		if err != nil {
			b.Fatal(err)
		}
		for j := range ids {
			ids[j] = first + j
		}
		if err := ix.DeleteProducts(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGIRMutationUnderQueryLoad measures mutation latency while a
// background goroutine runs queries continuously — the epoch design's
// claim is that neither side blocks the other.
func BenchmarkGIRMutationUnderQueryLoad(b *testing.B) {
	if testing.Short() {
		b.Skip("contention benchmark skipped in short mode")
	}
	ix := mutationBenchIndex(b, 20000, 5000)
	q := ix.Products()[0]
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ix.ReverseTopKCtx(context.Background(), q, 10); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(76))
	p := make(Vector, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range p {
			p[j] = rng.Float64() * 50
		}
		id, err := ix.InsertProduct(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.DeleteProduct(id); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkGIRMutationSubscriberFanout measures the marginal cost live
// subscriptions add to a mutation epoch: the same insert/delete pairs
// under query load as BenchmarkGIRMutationUnderQueryLoad, with N
// monitors registered whose diff pass runs inside each publish. The
// sub-benchmark at 0 subscribers is the baseline; the spread across
// counts is the fan-out price per epoch.
//
// The base is deliberately smaller than the other mutation benchmarks:
// random mid-range churn is the diff pass's worst case (nearly every
// epoch moves preferences under every monitor), so a hot monitor-epoch
// costs on the order of one bounded reverse query, and the benchmark's
// point is the per-monitor spread of that price, not the absolute cost
// of a query at catalog scale (the query suite already tracks that).
func BenchmarkGIRMutationSubscriberFanout(b *testing.B) {
	if testing.Short() {
		b.Skip("contention benchmark skipped in short mode")
	}
	for _, nsubs := range []int{0, 4, 16, 64} {
		b.Run(fmt.Sprintf("subs=%d", nsubs), func(b *testing.B) {
			ix := mutationBenchIndex(b, 1000, 500)
			products := ix.Products()
			q := products[0]
			var subs []*Subscription
			for i := 0; i < nsubs; i++ {
				kind := SubReverseTopK
				if i%2 == 1 {
					kind = SubReverseKRanks
				}
				s, err := ix.Subscribe(products[i%len(products)], 10, kind, 1<<16)
				if err != nil {
					b.Fatal(err)
				}
				subs = append(subs, s)
				// Drain each stream in the background so buffers never
				// fill: the benchmark measures the diff pass, not a
				// stalled consumer.
				go func(s *Subscription) {
					for range s.Events() {
					}
				}(s)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := ix.ReverseTopKCtx(context.Background(), q, 10); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			rng := rand.New(rand.NewSource(77))
			p := make(Vector, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range p {
					p[j] = rng.Float64() * 50
				}
				id, err := ix.InsertProduct(p)
				if err != nil {
					b.Fatal(err)
				}
				if err := ix.DeleteProduct(id); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			<-done
			for _, s := range subs {
				s.Close()
			}
		})
	}
}
