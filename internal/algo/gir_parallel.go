package algo

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/trace"
	"gridrank/internal/vec"
)

// The GIR scan loops and their fan-out.
//
// Every query runs one scan loop per kind — scanTopK and scanKRanks
// below. The loop claims chunks of POSITIONS in the cell-sorted visit
// order and ranks each weight of the chunk with rankBounded, using the
// caller's pooled state (Domin buffer, bound scratch, heap). At one
// worker it runs on the calling goroutine with sh == nil: chunks are
// claimed in sequence, and no goroutine, cursor or shared atomic exists.
// Fanned out (workers > 1), each worker goroutine runs the same loop
// with private state and stats.Counters, claiming chunks from the
// atomic cursor of one scanShared; the coordinator merges the workers'
// results deterministically, and their counts once, at the end.
// batch.go parallelizes across queries, so fanning out is for the
// single large query (the paper's market-analysis case) that would
// otherwise leave cores idle.
//
// Two pieces of cross-worker pruning state keep the sharded scan as
// effective as the inline one:
//
//   - RTK (Algorithm 2 lines 7–8): the global-dominator early exit needs
//     the number of DISTINCT points known to dominate q across all
//     workers. A plain shared counter would double-count a dominator
//     discovered independently by two workers and could fire the empty
//     answer prematurely, so sharedDomin deduplicates through a CAS
//     bitset and counts only first claims.
//
//   - RKR (Algorithm 3): the heap cutoff h.Threshold() becomes an atomic
//     watermark. Whenever a worker's local size-k heap is full, its worst
//     retained rank T proves k matches with rank ≤ T exist, so every
//     worker may prune any weight whose running rank exceeds T (cutoff
//     T+1). The watermark is the CAS-minimum of all published T values.
//
// Determinism: answers are bit-identical at every worker count. A
// worker's shard is an arbitrary subsequence of W by index, and every
// pruning cutoff — the local heap threshold as well as the watermark —
// uses T+1, not T, so rank == T candidates, which can still win (rank,
// index) ties, are always refined exactly. The global answer is
// recovered by re-sorting the merged candidates on the (rank, index)
// total order. See DESIGN.md §7 and §9.

// cancelChunk is the cancellation granularity of the scan: every loop
// polls ctx before claiming its next chunk, and no chunk holds more than
// cancelChunk weights. One chunk is the most work a cancelled query
// performs per goroutine before returning, and at ~|P| operations per
// weight it amortizes the poll to nothing.
const cancelChunk = 1024

// normalizeWorkers resolves a worker-count request: negative means
// GOMAXPROCS, 0 means one, and a query never uses more workers than
// weight vectors.
func normalizeWorkers(workers, nW int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, nW))
}

// parallelChunk sizes the unit of work workers claim from the shared
// cursor: small enough for load balance across skewed shards, large
// enough that the atomic claim is amortized over many rank evaluations.
// The cancelChunk ceiling bounds how much work a worker performs between
// context polls, so a cancelled query stops within one chunk.
func parallelChunk(nW, workers int) int {
	return min(max(nW/(8*workers), 16), cancelChunk)
}

// scanShared is the cross-worker state of one fanned-out scan: the chunk
// cursor and whichever pruning state the query kind shares. The inline
// scan passes a nil *scanShared, and every method below has its
// one-worker meaning on nil.
type scanShared struct {
	cursor atomic.Int64
	chunk  int
	dom    *sharedDomin   // RTK: distinct dominators across workers
	wm     *rankWatermark // RKR: the shared admission bound
}

// claim returns the next chunk [start, end) of visit positions out of
// n, or ok = false once the order is exhausted or ctx is done. ctx is
// polled before every claim except the inline scan's first, which
// directly follows the entrypoint's own check; a worker starts later, so
// it polls before its first claim too. next is the inline scan's
// private cursor.
func (sh *scanShared) claim(ctx context.Context, next *int, n int) (start, end int, ok bool) {
	if (sh != nil || *next > 0) && ctx.Done() != nil && ctx.Err() != nil {
		return 0, 0, false
	}
	chunk := cancelChunk
	if sh == nil {
		start = *next
		*next += chunk
	} else {
		chunk = sh.chunk
		start = int(sh.cursor.Add(int64(chunk))) - chunk
	}
	return start, min(start+chunk, n), start < n
}

// dominators is the number of distinct points known to dominate q: the
// worker's own exact count inline, the deduplicated global count when
// fanned out.
func (sh *scanShared) dominators(dom *domin) int {
	if sh == nil {
		return dom.count
	}
	return int(sh.dom.count.Load())
}

// cutoff is the rank bound for the next weight: the local heap's
// admission cutoff, tightened by the watermark when fanned out.
func (sh *scanShared) cutoff(h *topk.KRankHeap) int {
	local := admitCutoff(h)
	if sh == nil {
		return local
	}
	return sh.wm.cutoff(local)
}

// scanTopK is the GIRTop-k scan loop (Algorithm 2): it ranks every
// weight of each claimed chunk against cutoff k, collecting the admitted
// weights into st.res, until the order is exhausted, k distinct
// dominators prove the answer empty, or ctx is done. It returns how many
// weights it ranked.
func (gr *GIR) scanTopK(ctx context.Context, q vec.Vector, k int, st *queryState, sh *scanShared, c *stats.Counters) (scanned int) {
	order := gr.wg.MemberOrder()
	for next := 0; ; {
		if sh.dominators(st.dom) >= k {
			return scanned
		}
		start, end, ok := sh.claim(ctx, &next, len(order))
		if !ok {
			return scanned
		}
		for oi, wi := range order[start:end] {
			if _, ok := gr.rankBounded(int(wi), q, k, st.dom, st.scratch, c); ok {
				st.res = append(st.res, int(wi))
			}
			if sh.dominators(st.dom) >= k {
				return scanned + oi + 1
			}
		}
		scanned += end - start
	}
}

// scanKRanks is the GIRk-Rank scan loop (Algorithm 3): it offers every
// weight of each claimed chunk whose rank beats the current cutoff to
// st.heap (reset by the caller), until the order is exhausted or ctx is
// done. It returns how many weights it ranked and how many the heap
// admitted.
func (gr *GIR) scanKRanks(ctx context.Context, q vec.Vector, st *queryState, sh *scanShared, c *stats.Counters) (scanned, admits int) {
	order := gr.wg.MemberOrder()
	h := st.heap
	for next := 0; ; {
		start, end, ok := sh.claim(ctx, &next, len(order))
		if !ok {
			return scanned, admits
		}
		for _, wi := range order[start:end] {
			// The visit order is not ascending by weight index, so even
			// the local threshold must admit rank == T ties: T+1, same as
			// the watermark rule.
			if rnk, ok := gr.rankBounded(int(wi), q, sh.cutoff(h), st.dom, st.scratch, c); ok {
				if h.Offer(topk.Match{WeightIndex: int(wi), Rank: rnk}) {
					admits++
					if sh != nil {
						sh.wm.tighten(h.Threshold())
					}
				}
			}
		}
		scanned += end - start
	}
}

// sharedDomin tracks the distinct dominators of q discovered by any
// worker. Local Domin buffers publish first discoveries here; the count
// is exact (never double-counts a point), which makes the Algorithm 2
// early exit safe under sharding.
type sharedDomin struct {
	words []atomic.Uint64 // claim bitset, one bit per point
	count atomic.Int64    // number of distinct set bits
}

func newSharedDomin(n int) *sharedDomin {
	return &sharedDomin{words: make([]atomic.Uint64, (n+63)/64)}
}

// claim marks point pj as a dominator; only the first claimer increments
// the count.
func (s *sharedDomin) claim(pj int) {
	w := &s.words[pj>>6]
	bit := uint64(1) << uint(pj&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			s.count.Add(1)
			return
		}
	}
}

// rankWatermark is the shared RKR admission bound: the minimum worst
// retained rank over every full per-worker heap. Initialized to maxInt
// (no bound) and monotonically tightened with CAS.
type rankWatermark struct {
	v atomic.Int64
}

func newRankWatermark() *rankWatermark {
	wm := &rankWatermark{}
	wm.v.Store(int64(maxInt))
	return wm
}

// tighten lowers the watermark to t if t is smaller. A heap that is not
// yet full reports threshold maxInt, which never tightens.
func (wm *rankWatermark) tighten(t int) {
	for {
		cur := wm.v.Load()
		if int64(t) >= cur {
			return
		}
		if wm.v.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// cutoff combines a worker's local heap threshold with the global
// watermark: prune at the local threshold (safe within the worker's
// ascending shard) or one past the watermark (safe globally), whichever
// is tighter.
func (wm *rankWatermark) cutoff(local int) int {
	g := wm.v.Load()
	if g < int64(maxInt) && int(g)+1 < local {
		return int(g) + 1
	}
	return local
}

// scanLabels builds the pprof label set stamped on every scan worker
// goroutine, so a goroutine or CPU profile taken during an incident
// attributes worker time to the query kind, its k and the index layout
// (go tool pprof -tagfocus rrq_query=reverse_topk ...).
func scanLabels(kind string, k int) pprof.LabelSet {
	return pprof.Labels(
		"rrq_query", kind,
		"rrq_k", strconv.Itoa(k),
		"rrq_layout", "packed",
	)
}

// fanOut runs scan on workers goroutines and waits for all of them.
// Each worker is pprof-labelled, owns a pooled query state and a private
// counter set, and records a scan.worker child of sp with its breakdown
// and the number of weights it ranked (scan's return value). Once the
// workers have joined, their counter sets are merged into c.
func (gr *GIR) fanOut(ctx context.Context, workers int, kind string, k int, sp *trace.Span, c *stats.Counters, scan func(w int, st *queryState, wc *stats.Counters) int) {
	sp.SetInt("workers", int64(workers))
	cs := make([]stats.Counters, workers)
	lbls := scanLabels(kind, k)
	var wg sync.WaitGroup
	for w := range cs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, lbls))
			wsp := sp.Child("scan.worker")
			wsp.SetInt("worker", int64(w))
			st := gr.getState()
			scanned := scan(w, st, &cs[w])
			gr.putState(st)
			wsp.SetInt("weights_scanned", int64(scanned))
			setScanAttrs(wsp, &cs[w], -1, -1, -1)
			wsp.End()
		}(w)
	}
	wg.Wait()
	stats.Merge(c, cs)
}

// reverseTopKFanOut shards GIRTop-k over workers goroutines and returns
// the union of their admitted weights (unsorted) with the global
// dominator count, merging the workers' counts into c.
func (gr *GIR) reverseTopKFanOut(ctx context.Context, q vec.Vector, k, workers int, sp *trace.Span, c *stats.Counters) ([]int, int) {
	sh := &scanShared{chunk: parallelChunk(gr.wm.Len(), workers), dom: newSharedDomin(gr.pm.Len())}
	parts := make([][]int, workers)
	gr.fanOut(ctx, workers, "reverse_topk", k, sp, c, func(w int, st *queryState, wc *stats.Counters) int {
		st.dom.shared = sh.dom
		scanned := gr.scanTopK(ctx, q, k, st, sh, wc)
		parts[w] = append([]int(nil), st.res...)
		return scanned
	})
	var res []int
	for w := range parts {
		res = append(res, parts[w]...)
	}
	return res, int(sh.dom.count.Load())
}

// reverseKRanksFanOut shards GIRk-Rank over workers goroutines and
// returns the union of the workers' local answers for mergeKRanks,
// merging the workers' counts into c.
func (gr *GIR) reverseKRanksFanOut(ctx context.Context, q vec.Vector, k, workers int, sp *trace.Span, c *stats.Counters) []topk.Match {
	sh := &scanShared{chunk: parallelChunk(gr.wm.Len(), workers), wm: newRankWatermark()}
	parts := make([][]topk.Match, workers)
	gr.fanOut(ctx, workers, "reverse_kranks", k, sp, c, func(w int, st *queryState, wc *stats.Counters) int {
		st.heap.Reset(k)
		scanned, _ := gr.scanKRanks(ctx, q, st, sh, wc)
		parts[w] = st.heap.Results()
		return scanned
	})
	var union []topk.Match
	for w := range parts {
		union = append(union, parts[w]...)
	}
	return union
}

// mergeKRanks reduces the union of the workers' local answers to the
// global one. Every global top-k match survives some worker's local heap
// (a worker's heap keeps its shard's k best, a superset of the shard's
// contribution to the global answer), so sorting the union on the
// (rank, index) order and truncating reproduces the inline answer
// exactly.
func mergeKRanks(union []topk.Match, k int) []topk.Match {
	sort.Slice(union, func(a, b int) bool {
		if union[a].Rank != union[b].Rank {
			return union[a].Rank < union[b].Rank
		}
		return union[a].WeightIndex < union[b].WeightIndex
	})
	return union[:min(k, len(union))]
}
