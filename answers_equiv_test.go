package gridrank

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The maintained-answer equivalence harness: the proof standard for the
// answer cache and the subscriptions, which are one registry. Random
// interleaved histories of mutations and queries run against two
// indexes over identical data — one with the cache on and live
// subscriptions of both kinds, one plain — mirrored into model slices.
// After every epoch each subscription's events must equal the
// brute-force membership delta, and every query — on subscribed keys,
// answered by the subscription's entry, and on unsubscribed keys,
// answered by cached entries or the scan — must be byte-identical to the
// plain index at every worker count, with ranks cross-validated against
// brute force.

// bruteRank is the exact scan: |{p : <w,p> < <w,q>}|.
func bruteRank(ps []Vector, w, q Vector) int {
	var fq float64
	for j := range q {
		fq += w[j] * q[j]
	}
	r := 0
	for _, p := range ps {
		var fp float64
		for j := range p {
			fp += w[j] * p[j]
		}
		if fp < fq {
			r++
		}
	}
	return r
}

// bruteMembers computes a (q, k, kind) answer set from the model
// slices: top-k membership is rank < k; k-ranks is the k best by
// ascending (rank, id). Both are reported ascending by id.
func bruteMembers(ps, ws []Vector, q Vector, k int, kind SubKind) []SubMember {
	ms := make([]SubMember, len(ws))
	for wi := range ws {
		ms[wi] = SubMember{Pref: wi, Rank: bruteRank(ps, ws[wi], q)}
	}
	if kind == SubReverseTopK {
		var out []SubMember
		for _, m := range ms {
			if m.Rank < k {
				out = append(out, SubMember{Pref: m.Pref})
			}
		}
		return out
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Rank != ms[j].Rank {
			return ms[i].Rank < ms[j].Rank
		}
		return ms[i].Pref < ms[j].Pref
	})
	ms = ms[:min(k, len(ms))]
	sort.Slice(ms, func(i, j int) bool { return ms[i].Pref < ms[j].Pref })
	return ms
}

func sameMembers(a, b []SubMember) bool {
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

type subEvKey struct {
	t  string
	id int
}

func drainSubEvents(s *Subscription) map[subEvKey]int {
	out := map[subEvKey]int{}
	for {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				return out
			}
			out[subEvKey{ev.Type.String(), ev.Pref}]++
		default:
			return out
		}
	}
}

// expectedSubEvents is the membership delta old→fresh. prefDelete >= 0
// applies the delete renumbering: the deleted preference leaves under
// its pre-delete id, survivors are compared under their new ids.
func expectedSubEvents(old, fresh []SubMember, prefDelete int) map[subEvKey]int {
	out := map[subEvKey]int{}
	oldSet := map[int]bool{}
	for _, m := range old {
		switch {
		case prefDelete >= 0 && m.Pref == prefDelete:
			out[subEvKey{"leave", m.Pref}]++
		case prefDelete >= 0 && m.Pref > prefDelete:
			oldSet[m.Pref-1] = true
		default:
			oldSet[m.Pref] = true
		}
	}
	newSet := map[int]bool{}
	for _, m := range fresh {
		newSet[m.Pref] = true
		if !oldSet[m.Pref] {
			out[subEvKey{"enter", m.Pref}]++
		}
	}
	for p := range oldSet {
		if !newSet[p] {
			out[subEvKey{"leave", p}]++
		}
	}
	return out
}

func sameSubEvents(a, b map[subEvKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// trialMutate applies one random mutation to both indexes, mirrors it
// into the ps/ws model slices, and returns the deleted preference id
// (or -1).
func trialMutate(t *testing.T, rng *rand.Rand, cached, plain *Index, ps, ws *[]Vector) int {
	t.Helper()
	d := cached.Dim()
	apply := func(f func(ix *Index) error) {
		t.Helper()
		if err := f(cached); err != nil {
			t.Fatal(err)
		}
		if err := f(plain); err != nil {
			t.Fatal(err)
		}
	}
	switch op := rng.Intn(7); {
	case op == 0 && len(*ps) > 3: // delete product
		i := rng.Intn(len(*ps))
		apply(func(ix *Index) error { return ix.DeleteProduct(i) })
		*ps = append((*ps)[:i:i], (*ps)[i+1:]...)
	case op == 1 && len(*ws) > 3: // delete preference (renumbering path)
		i := rng.Intn(len(*ws))
		apply(func(ix *Index) error { return ix.DeletePreference(i) })
		*ws = append((*ws)[:i:i], (*ws)[i+1:]...)
		return i
	case op == 2: // insert preference (sometimes skewed: rebuild path)
		w := randPreference(rng, d)
		apply(func(ix *Index) error { _, err := ix.InsertPreference(w); return err })
		*ws = append(*ws, w)
	case op == 3 && len(*ps) > 6: // batch product delete (rebuild path)
		ids := []int{rng.Intn(len(*ps) / 2), len(*ps)/2 + rng.Intn(len(*ps)/2)}
		apply(func(ix *Index) error { return ix.DeleteProducts(ids) })
		*ps = append((*ps)[:ids[0]:ids[0]], (*ps)[ids[0]+1:]...)
		*ps = append((*ps)[:ids[1]-1:ids[1]-1], (*ps)[ids[1]:]...)
	case op == 4: // batch preference insert (rebuild path)
		batch := []Vector{randPreference(rng, d), randPreference(rng, d)}
		apply(func(ix *Index) error { _, err := ix.InsertPreferences(batch); return err })
		*ws = append(*ws, batch...)
	default: // insert product, sometimes growing rangeP (rebuild path)
		p := randProduct(rng, d, []float64{0.9, 1.0, 1.4}[rng.Intn(3)])
		apply(func(ix *Index) error { _, err := ix.InsertProduct(p); return err })
		*ps = append(*ps, p)
	}
	return -1
}

// equivK is the k every harness query and subscription uses, so the
// subscribed keys are among the queried ones.
const equivK = 4

// checkAnswerEquivalence compares the cached index against the plain one
// for every pooled query: identical RTK and RKR answers at workers
// {1, 2, 4, 8}, each asked twice (the first may miss and store, the
// second must be answered without a scan), the cache-bypass path
// identical too, and reported ranks equal to brute force.
func checkAnswerEquivalence(t *testing.T, cached, plain *Index, pool []Vector, ps, ws []Vector) {
	t.Helper()
	ctx := context.Background()
	for qi, q := range pool {
		for _, workers := range []int{1, 2, 4, 8} {
			wantRTK, err := plain.ReverseTopKCtx(ctx, q, equivK, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			wantRKR, err := plain.ReverseKRanksCtx(ctx, q, equivK, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				gotRTK, err := cached.ReverseTopKCtx(ctx, q, equivK, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !sameInts(gotRTK, wantRTK) || (gotRTK == nil) != (wantRTK == nil) {
					t.Fatalf("query %d workers=%d pass=%d: cached RTK %v, plain %v", qi, workers, pass, gotRTK, wantRTK)
				}
				gotRKR, err := cached.ReverseKRanksCtx(ctx, q, equivK, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !sameMatches(gotRKR, wantRKR) {
					t.Fatalf("query %d workers=%d pass=%d: cached RKR %v, plain %v", qi, workers, pass, gotRKR, wantRKR)
				}
				// Answers are the caller's: scribbling over them must not
				// reach what the index serves next.
				for i := range gotRTK {
					gotRTK[i] = -1
				}
				for i := range gotRKR {
					gotRKR[i] = Match{WeightIndex: -1, Rank: -1}
				}
			}
			bypass, err := cached.ReverseTopKCtx(ctx, q, equivK, WithWorkers(workers), WithoutCache())
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(bypass, wantRTK) {
				t.Fatalf("query %d workers=%d: WithoutCache RTK %v, plain %v", qi, workers, bypass, wantRTK)
			}
		}
		matches, err := cached.ReverseKRanksCtx(ctx, q, equivK)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if brute := bruteRank(ps, ws[m.WeightIndex], q); m.Rank != brute {
				t.Fatalf("rank(w%d, q%d) = %d, brute force %d", m.WeightIndex, qi, m.Rank, brute)
			}
		}
	}
}

// equivSeeds are the seed bases of one family of harness histories:
// trial i draws its shape from rng+i, its products from products+i and
// its preferences from prefs+i.
type equivSeeds struct{ rng, products, prefs int64 }

// TestCacheEquivalence and TestSubscriptionEquivalence run the one
// harness, runAnswerEquivalence, over two families of 50 histories each
// (the seeds of the former cache and subscription harnesses). Every
// history checks both: answers against the plain index and events
// against brute force.
func TestCacheEquivalence(t *testing.T) {
	runAnswerEquivalence(t, equivSeeds{rng: 41000, products: 300, prefs: 1300})
}

func TestSubscriptionEquivalence(t *testing.T) {
	runAnswerEquivalence(t, equivSeeds{rng: 63000, products: 700, prefs: 1700})
}

// runAnswerEquivalence is the headline harness: 50 random histories
// with the cache on and live subscriptions of both kinds. Subscriptions
// come and go mid-history — one attaches to an answer already cached,
// one leaves its answer behind as a cached one — and after every epoch
// the events match the brute-force delta and every answer matches the
// plain index. The forced dominating insert must gate every subscribed
// answer, both kinds of entry must have answered lookups, the diff pass
// must have examined strictly fewer preference vectors than recomputing
// the subscribed answers would have, and Close must close every channel.
func runAnswerEquivalence(t *testing.T, seeds equivSeeds) {
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seeds.rng + int64(trial)))
			d := 2 + rng.Intn(3)
			dist := Uniform
			if trial%2 == 1 {
				dist = Clustered
			}
			P, err := GenerateProducts(seeds.products+int64(trial), dist, 15+rng.Intn(40), d)
			if err != nil {
				t.Fatal(err)
			}
			W, err := GeneratePreferences(seeds.prefs+int64(trial), Uniform, 10+rng.Intn(25), d)
			if err != nil {
				t.Fatal(err)
			}
			// A small cache (eviction in play for some trials) and a plain
			// index as the oracle.
			cached, err := New(P, W, &Options{GridPartitions: 8, CacheSize: 8 + rng.Intn(64)})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(P, W, &Options{GridPartitions: 8})
			if err != nil {
				t.Fatal(err)
			}
			ps := append([]Vector{}, P...)
			ws := append([]Vector{}, W...)
			// A fixed query pool, reused across steps so entries persist
			// across mutations. pool[0] RTK and pool[1] RKR are subscribed
			// keys; the rest are answered by cached entries or the scan.
			// pool[3], the componentwise maximum of the catalog, has at
			// least n − d dominators, so its reverse top-k answer — a
			// subscribed key too — is decided by the dominator pre-pass
			// before any scan, at every recompute.
			high := make(Vector, d)
			for _, p := range ps {
				for j, x := range p {
					high[j] = max(high[j], x)
				}
			}
			pool := []Vector{ps[rng.Intn(len(ps))], ps[rng.Intn(len(ps))], randProduct(rng, d, 1.2), high}
			var subs []*Subscription
			subscribe := func(q Vector, kind SubKind, k int) {
				t.Helper()
				s, err := cached.Subscribe(q, k, kind, 4096)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteMembers(ps, ws, s.Query(), s.K(), s.Kind()); !sameMembers(s.Initial(), want) {
					t.Fatalf("subscription %d initial %v, brute force %v", s.ID(), s.Initial(), want)
				}
				subs = append(subs, s)
			}
			subscribe(pool[0], SubReverseTopK, equivK)
			subscribe(pool[1], SubReverseKRanks, equivK)
			// Two more on unpooled points at a random k, one of each kind.
			subscribe(ps[rng.Intn(len(ps))], SubReverseTopK, 1+rng.Intn(5))
			subscribe(ps[rng.Intn(len(ps))], SubReverseKRanks, 1+rng.Intn(5))
			var hs Stats
			if _, err := plain.ReverseTopKCtx(context.Background(), high, equivK, WithStats(&hs)); err != nil || hs.Dominators != equivK || hs.PairwiseMults != 0 {
				t.Fatalf("reverse top-k at the catalog maximum: %v, %+v; want the pre-pass to decide it", err, hs)
			}
			subscribe(high, SubReverseTopK, equivK)
			members := make([][]SubMember, len(subs))
			for i, s := range subs {
				members[i] = s.Initial()
			}
			// Subscriptions to one (q, k, kind) share an entry: the dominance
			// gate counts subscribed answers, not subscriptions.
			keys := map[string]bool{}
			for _, s := range subs {
				keys[fmt.Sprint(s.Kind(), s.K(), s.Query())] = true
			}
			checkAnswerEquivalence(t, cached, plain, pool, ps, ws)
			for step := 0; step < 13; step++ {
				prefDelete := -1
				if step == 0 {
					// Forced: a product componentwise above every point. The
					// dominance gate skips every subscribed answer, which
					// makes the strictly-fewer assertion below immune to
					// later epochs (a diff never exceeds its full cost).
					maxc := 0.0
					for _, p := range append(append([]Vector{}, ps...), pool...) {
						for _, c := range p {
							maxc = max(maxc, c)
						}
					}
					dom := make(Vector, d)
					for j := range dom {
						dom[j] = maxc + 0.5
					}
					for _, ix := range []*Index{cached, plain} {
						if _, err := ix.InsertProduct(dom); err != nil {
							t.Fatal(err)
						}
					}
					ps = append(ps, dom)
					if st := cached.SubscriptionStats(); st.GatedSkips != int64(len(keys)) {
						t.Fatalf("dominated insert gated %d subscribed answers, want all %d", st.GatedSkips, len(keys))
					}
				} else {
					prefDelete = trialMutate(t, rng, cached, plain, &ps, &ws)
				}
				for i, s := range subs {
					want := bruteMembers(ps, ws, s.Query(), s.K(), s.Kind())
					gotEv := drainSubEvents(s)
					if wantEv := expectedSubEvents(members[i], want, prefDelete); !sameSubEvents(gotEv, wantEv) {
						t.Fatalf("step %d sub %d (%v, k=%d): events %v, want %v (members %v -> %v)",
							step, s.ID(), s.Kind(), s.K(), gotEv, wantEv, members[i], want)
					}
					if s.Lagged() {
						t.Fatalf("step %d sub %d lagged with a 4096 buffer", step, s.ID())
					}
					members[i] = want
				}
				checkAnswerEquivalence(t, cached, plain, pool, ps, ws)
				switch step {
				case 5:
					// pool[2]'s k-ranks answer is cached by now: the new
					// subscription attaches to it.
					subscribe(pool[2], SubReverseKRanks, equivK)
					members = append(members, subs[len(subs)-1].Initial())
				case 8:
					// The subscribed top-k answer at pool[0] stays on as a
					// cached one.
					subs[0].Close()
					if _, ok := <-subs[0].Events(); ok {
						t.Fatal("channel open after Close")
					}
					subs, members = subs[1:], members[1:]
				}
			}
			cs, _ := cached.CacheStats()
			if cs.MonitorHits == 0 || cs.Hits-cs.MonitorHits == 0 {
				t.Fatalf("lookups were not answered by both kinds of entry: %+v", cs)
			}
			st := cached.SubscriptionStats()
			if st.PrefsDiffEvaluated >= st.PrefsDiffFullCost {
				t.Fatalf("diff pass examined %d preference vectors, full recompute baseline %d: no saving",
					st.PrefsDiffEvaluated, st.PrefsDiffFullCost)
			}
			if st.Lagged != 0 || st.Monitors != int64(len(subs)) {
				t.Fatalf("stats = %+v, want %d live subscriptions", st, len(subs))
			}
			for _, s := range subs {
				s.Close()
				if _, ok := <-s.Events(); ok {
					t.Fatalf("sub %d channel open after Close", s.ID())
				}
			}
			if st := cached.SubscriptionStats(); st.Monitors != 0 {
				t.Fatalf("subscriptions remain after Close: %+v", st)
			}
		})
	}
}

// TestCacheOptionsValidation covers the cache configuration rejection
// paths and the enable/disable lifecycle.
func TestCacheOptionsValidation(t *testing.T) {
	if _, err := New(phones, users, &Options{CacheSize: -1}); err == nil {
		t.Fatal("negative CacheSize accepted")
	}
	if _, err := New(phones, users, &Options{CacheSize: 8, CacheTTL: -time.Second}); err == nil {
		t.Fatal("negative CacheTTL accepted")
	}
	if _, err := New(phones, users, &Options{CacheTTL: time.Second}); err == nil {
		t.Fatal("CacheTTL without CacheSize accepted")
	}
	ix := mustIndex(t, nil)
	if ix.CacheEnabled() {
		t.Fatal("cache enabled by default")
	}
	if _, ok := ix.CacheStats(); ok {
		t.Fatal("CacheStats ok without a cache")
	}
	if err := ix.EnableCache(0, 0); err == nil {
		t.Fatal("EnableCache(0) accepted")
	}
	if err := ix.EnableCache(16, time.Minute); err != nil {
		t.Fatal(err)
	}
	if !ix.CacheEnabled() {
		t.Fatal("cache not enabled")
	}
	cs, ok := ix.CacheStats()
	if !ok || cs.Size != 16 || cs.TTL != time.Minute {
		t.Fatalf("CacheStats = %+v, %v", cs, ok)
	}
	ix.DisableCache()
	if ix.CacheEnabled() {
		t.Fatal("cache still enabled after DisableCache")
	}
}

// TestCacheServedEpoch pins the WithServedEpoch contract: misses serve
// the snapshot epoch, hits serve the entry's epoch, and an unaffected
// entry keeps serving its original epoch across mutations that cannot
// change its answer.
func TestCacheServedEpoch(t *testing.T) {
	ix := mustIndex(t, &Options{CacheSize: 16})
	ctx := context.Background()
	q := Vector{0.2, 0.3}
	var served uint64
	if _, err := ix.ReverseTopKCtx(ctx, q, 2, WithServedEpoch(&served)); err != nil {
		t.Fatal(err)
	}
	if served != 0 {
		t.Fatalf("miss served epoch %d, want 0", served)
	}
	// A dominating product (componentwise above q) cannot change q's
	// answer: the entry survives and keeps its epoch tag.
	if _, err := ix.InsertProduct(Vector{0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
	res, err := ix.ReverseTopKCtx(ctx, q, 2, WithServedEpoch(&served))
	if err != nil {
		t.Fatal(err)
	}
	if served != 0 {
		t.Fatalf("unaffected hit served epoch %d, want 0", served)
	}
	want, err := ix.ReverseTopKCtx(ctx, q, 2, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(res, want) {
		t.Fatalf("cached answer %v, scan %v", res, want)
	}
	// A product below q in one dimension invalidates: the next query
	// scans and serves the current epoch.
	if _, err := ix.InsertProduct(Vector{0.1, 0.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ReverseTopKCtx(ctx, q, 2, WithServedEpoch(&served)); err != nil {
		t.Fatal(err)
	}
	if served != 2 {
		t.Fatalf("post-invalidation query served epoch %d, want 2", served)
	}
	cs, _ := ix.CacheStats()
	if cs.Hits != 1 || cs.Invalidations != 1 {
		t.Fatalf("counters = %+v", cs)
	}
}

// TestEmptyAnswerHitIsNil: a cached empty reverse top-k answer is served
// as nil, exactly like the scan's.
func TestEmptyAnswerHitIsNil(t *testing.T) {
	ix := mustIndex(t, &Options{CacheSize: 4})
	q := Vector{2, 2} // above every phone: no preference ranks it in its top 2
	for pass := 0; pass < 2; pass++ {
		res, err := ix.ReverseTopKCtx(context.Background(), q, 2)
		if err != nil || res != nil {
			t.Fatalf("pass %d: answer %#v, %v; want nil", pass, res, err)
		}
	}
	if cs, _ := ix.CacheStats(); cs.Hits != 1 {
		t.Fatalf("counters = %+v, want the second query answered from the cache", cs)
	}
}
