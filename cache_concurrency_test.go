package gridrank

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The concurrency side of the cache proof: N queriers race M mutators on
// a cache-enabled index with a live subscription (run under -race in
// CI), and every answer's served epoch must be at least the epoch of the
// last mutation that could have affected that query — i.e. neither a
// cached nor a subscribed entry is ever served stale. Staleness is
// decided with the same dominance predicate the registry uses (DESIGN.md
// §12): a product row affects a query unless it is componentwise >= the
// query; preference mutations affect every query.

// affectsQuery mirrors internal/answers.rowAffects for the test's oracle.
func affectsQuery(row, q Vector) bool {
	if len(row) != len(q) {
		return true
	}
	for j := range row {
		if !(row[j] >= q[j]) {
			return true
		}
	}
	return false
}

// mutRecord is one entry of the shared mutation log: the epoch the
// mutation installed, and the product row it touched (nil for
// preference mutations, which affect every query).
type mutRecord struct {
	seq uint64
	row Vector // nil: affects all queries
}

// TestCacheConcurrencyNoStaleEpoch races 4 queriers against 2 mutators
// on a cache-enabled index. Each querier computes, from the shared
// mutation log, the epoch of the last mutation affecting its query
// before it runs, then asserts the served epoch (WithServedEpoch) is at
// least that — catching any window where an invalidation sweep lags the
// epoch install or a racing store resurrects a pre-mutation answer. The
// test is goroutine-leak-checked.
func TestCacheConcurrencyNoStaleEpoch(t *testing.T) {
	before := runtime.NumGoroutine()

	P, err := GenerateProducts(71, Clustered, 250, 3)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(72, Uniform, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{GridPartitions: 12, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	// The query pool is fixed and shared, so queriers repeatedly ask the
	// same questions and the cache serves real hits under mutation.
	rng := rand.New(rand.NewSource(73))
	pool := make([]Vector, 6)
	for i := range pool {
		pool[i] = randProduct(rng, 3, 1.0)
	}

	// A live subscription on one pooled top-k key: its entry answers
	// those lookups and must never serve a stale epoch either. Nobody
	// drains it, so its buffer holds more events than the 160 mutations
	// over 100 preferences can emit.
	sub, err := ix.Subscribe(pool[0], 5, SubReverseTopK, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// logMu serializes mutate -> Epoch() -> append, so each log record
	// carries the exact epoch its mutation installed, and queriers read
	// a prefix-consistent log.
	var logMu sync.Mutex
	var mutLog []mutRecord

	const mutations = 80
	ctx := context.Background()
	stop := make(chan struct{})
	errc := make(chan error, 16)
	var qwg, mwg sync.WaitGroup
	// queried counts answered queries. Each mutator waits for a few after
	// every mutation: it holds logMu across the mutation, and without the
	// wait it can starve the queriers and finish before any query repeats,
	// leaving the hit path untested.
	var queried atomic.Int64
	letQueriesRun := func() {
		for target := queried.Load() + 8; queried.Load() < target && len(errc) == 0; {
			runtime.Gosched()
		}
	}

	for g := 0; g < 4; g++ {
		qwg.Add(1)
		go func(seed int64) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := pool[rng.Intn(len(pool))]
				// Floor first, query second: any mutation that lands in
				// between only raises the served epoch further above the
				// floor, so the assertion stays one-sided and sound.
				logMu.Lock()
				var floor uint64
				for _, m := range mutLog {
					if m.row == nil || affectsQuery(m.row, q) {
						floor = m.seq
					}
				}
				logMu.Unlock()
				var served uint64
				var err error
				if rng.Intn(2) == 0 {
					_, err = ix.ReverseTopKCtx(ctx, q, 5, WithServedEpoch(&served))
				} else {
					_, err = ix.ReverseKRanksCtx(ctx, q, 5, WithServedEpoch(&served))
				}
				if err != nil {
					errc <- err
					return
				}
				if served < floor {
					errc <- fmt.Errorf("stale cache serve: answer epoch %d < last affecting mutation epoch %d", served, floor)
					return
				}
				queried.Add(1)
			}
		}(int64(100 + g))
	}

	// Product mutator: inserts and deletes, logging the touched row.
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		rng := rand.New(rand.NewSource(200))
		for i := 0; i < mutations; i++ {
			logMu.Lock()
			if rng.Intn(2) == 0 || ix.NumProducts() < 50 {
				p := randProduct(rng, 3, 1.0)
				if _, err := ix.InsertProduct(p); err != nil {
					logMu.Unlock()
					errc <- err
					return
				}
				mutLog = append(mutLog, mutRecord{seq: ix.Epoch(), row: p})
			} else {
				id := rng.Intn(ix.NumProducts())
				row, err := ix.Product(id)
				if err == nil {
					err = ix.DeleteProduct(id)
				}
				if err != nil {
					logMu.Unlock()
					errc <- err
					return
				}
				mutLog = append(mutLog, mutRecord{seq: ix.Epoch(), row: row})
			}
			logMu.Unlock()
			letQueriesRun()
		}
	}()

	// Preference mutator: every preference mutation affects every query.
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		rng := rand.New(rand.NewSource(300))
		for i := 0; i < mutations; i++ {
			logMu.Lock()
			var err error
			if rng.Intn(2) == 0 || ix.NumPreferences() < 30 {
				_, err = ix.InsertPreference(randPreference(rng, 3))
			} else {
				err = ix.DeletePreference(rng.Intn(ix.NumPreferences()))
			}
			if err != nil {
				logMu.Unlock()
				errc <- err
				return
			}
			mutLog = append(mutLog, mutRecord{seq: ix.Epoch(), row: nil})
			logMu.Unlock()
			letQueriesRun()
		}
	}()

	mwg.Wait()
	close(stop)
	qwg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	cs, ok := ix.CacheStats()
	if !ok {
		t.Fatal("cache disabled mid-test")
	}
	if cs.Hits == cs.MonitorHits || cs.MonitorHits == 0 {
		t.Fatalf("queriers did not hit both cached and subscribed entries: %+v", cs)
	}
	if cs.Invalidations == 0 && cs.Flushes == 0 {
		t.Fatalf("mutators never invalidated anything: %+v", cs)
	}

	// Goroutine-leak check: everything the test started must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
