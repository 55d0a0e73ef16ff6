package answers

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

var (
	q1 = []float64{0.6, 0.7}
	q2 = []float64{0.2, 0.3}
	q3 = []float64{0.8, 0.2}
)

// newCache returns a registry with the cache on at the given capacity.
func newCache(size int) *Registry {
	r := New()
	r.EnableCache(Config{Size: size}, 0)
	return r
}

// topK builds a reverse top-k answer from preference ids.
func topK(ids ...int) []Member {
	out := make([]Member, len(ids))
	for i, id := range ids {
		out[i].Pref = id
	}
	return out
}

// lookupTopK returns a reverse top-k hit as ids.
func lookupTopK(r *Registry, q []float64, k int) ([]int, uint64, bool) {
	ms, ep, ok := r.Lookup(KindTopK, k, q)
	if !ok {
		return nil, 0, false
	}
	ids := []int{}
	for _, m := range ms {
		ids = append(ids, m.Pref)
	}
	return ids, ep, true
}

// prefSnapshot is an install's snapshot whose only rank machinery is a
// rank oracle keyed by the query point: ranks[key(0, 0, q)] is the new
// (or any) preference's exact rank of q, with RankOf's cutoff semantics.
func prefSnapshot(seq uint64, numPrefs int, ranks map[string]int, evals *int) Snapshot {
	return Snapshot{
		Seq:      seq,
		NumPrefs: numPrefs,
		RankOf: func(_ int, q []float64, cutoff int) (int, bool) {
			if evals != nil {
				*evals++
			}
			r := ranks[key(0, 0, q)]
			if cutoff > 0 && r >= cutoff {
				return cutoff, false
			}
			return r, true
		},
	}
}

func TestLookupMissAndHit(t *testing.T) {
	c := newCache(8)
	if _, _, ok := c.Lookup(KindTopK, 5, q1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Store(KindTopK, 5, q1, 3, topK(1, 2))
	res, ep, ok := lookupTopK(c, q1, 5)
	if !ok || ep != 3 || !reflect.DeepEqual(res, []int{1, 2}) {
		t.Fatalf("Lookup = %v, %d, %v", res, ep, ok)
	}
	if _, _, ok := lookupTopK(c, q1, 5); !ok {
		t.Fatal("second lookup missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Stores != 1 || st.MonitorHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyIsolation(t *testing.T) {
	c := newCache(8)
	c.Store(KindTopK, 5, q1, 0, topK(1))
	c.Store(KindKRanks, 5, q1, 0, []Member{{Pref: 2, Rank: 0}})
	if _, _, ok := c.Lookup(KindTopK, 5, q2); ok {
		t.Fatal("hit for a different query vector")
	}
	if _, _, ok := c.Lookup(KindTopK, 6, q1); ok {
		t.Fatal("hit for a different k")
	}
	// Kinds never alias even at the same (q, k).
	ints, _, ok := lookupTopK(c, q1, 5)
	if !ok || !reflect.DeepEqual(ints, []int{1}) {
		t.Fatalf("topk entry = %v, %v", ints, ok)
	}
	ms, _, ok := c.Lookup(KindKRanks, 5, q1)
	if !ok || !reflect.DeepEqual(ms, []Member{{Pref: 2, Rank: 0}}) {
		t.Fatalf("kranks entry = %v, %v", ms, ok)
	}
}

// TestEmptyAnswerHits: an empty answer is an answer — it hits. The
// index serves it as nil, like the scan (gridrank's
// TestEmptyAnswerHitIsNil).
func TestEmptyAnswerHits(t *testing.T) {
	c := newCache(8)
	c.Store(KindTopK, 5, q1, 0, topK())
	res, _, ok := c.Lookup(KindTopK, 5, q1)
	if !ok {
		t.Fatal("miss for stored empty answer")
	}
	if len(res) != 0 {
		t.Fatalf("empty answer hit = %v", res)
	}
}

func TestStoreRejectedBelowHead(t *testing.T) {
	c := New()
	c.EnableCache(Config{Size: 8}, 5)
	c.Store(KindTopK, 5, q1, 4, topK(1)) // computed against a pre-head epoch
	if _, _, ok := c.Lookup(KindTopK, 5, q1); ok {
		t.Fatal("stale store was accepted")
	}
	if got := c.Stats().RejectedStores; got != 1 {
		t.Fatalf("RejectedStores = %d, want 1", got)
	}
	c.Store(KindTopK, 5, q1, 5, topK(1)) // at-head stores are fine
	if _, _, ok := c.Lookup(KindTopK, 5, q1); !ok {
		t.Fatal("at-head store was rejected")
	}
	c.DisableCache()
	c.Store(KindTopK, 5, q2, 5, topK(1))
	if st := c.Stats(); st.Entries != 0 || st.Stores != 1 {
		t.Fatalf("store with the cache off kept: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(2)
	c.Store(KindTopK, 5, q1, 0, topK(1))
	c.Store(KindTopK, 5, q2, 0, topK(2))
	// Touch q1 so q2 is the LRU victim.
	if _, _, ok := c.Lookup(KindTopK, 5, q1); !ok {
		t.Fatal("q1 missing")
	}
	c.Store(KindTopK, 5, q3, 0, topK(3))
	if _, _, ok := c.Lookup(KindTopK, 5, q2); ok {
		t.Fatal("LRU entry survived past capacity")
	}
	if _, _, ok := c.Lookup(KindTopK, 5, q1); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, _, ok := c.Lookup(KindTopK, 5, q3); !ok {
		t.Fatal("newest entry missing")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New()
	c.EnableCache(Config{Size: 8, TTL: time.Minute, Now: func() time.Time { return now }}, 0)
	c.Store(KindTopK, 5, q1, 0, topK(1))
	if _, _, ok := c.Lookup(KindTopK, 5, q1); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(2 * time.Minute)
	if _, _, ok := c.Lookup(KindTopK, 5, q1); ok {
		t.Fatal("expired entry served")
	}
	if st := c.Stats(); st.Expirations != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want the expired entry gone", st)
	}
}

func TestFlush(t *testing.T) {
	c := newCache(8)
	c.Store(KindTopK, 5, q1, 0, topK(1))
	c.Store(KindKRanks, 3, q2, 0, []Member{{Pref: 0, Rank: 1}})
	c.Publish(Snapshot{Seq: 7}, Change{Op: Rebuild})
	if st := c.Stats(); st.Entries != 0 || st.Flushes != 1 {
		t.Fatalf("stats after rebuild = %+v, want no entries and 1 flush", st)
	}
	// The rebuild raised the head: stores from before it are rejected.
	c.Store(KindTopK, 5, q1, 6, topK(1))
	if _, _, ok := c.Lookup(KindTopK, 5, q1); ok {
		t.Fatal("pre-flush store accepted")
	}
}

func TestProductMutationPredicate(t *testing.T) {
	c := newCache(8)
	c.Store(KindTopK, 5, q1, 0, topK(1))                        // q1 = (0.6, 0.7)
	c.Store(KindKRanks, 3, q2, 0, []Member{{Pref: 1, Rank: 0}}) // q2 = (0.2, 0.3)

	// A row dominating both queries componentwise affects neither.
	c.Publish(Snapshot{Seq: 1}, Change{Op: InsertProduct, Row: []float64{0.9, 0.9}})
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("dominating row invalidated entries: %+v", st)
	}
	// A row below q1 in one dimension affects q1 but still dominates q2.
	c.Publish(Snapshot{Seq: 2}, Change{Op: DeleteProduct, Row: []float64{0.5, 0.9}})
	if _, _, ok := c.Lookup(KindTopK, 5, q1); ok {
		t.Fatal("affected entry survived")
	}
	if _, ep, ok := c.Lookup(KindKRanks, 3, q2); !ok || ep != 0 {
		t.Fatalf("unaffected entry: hit %v at epoch %d, want a hit keeping epoch 0", ok, ep)
	}
	if got := c.Stats().Invalidations; got != 1 {
		t.Fatalf("Invalidations = %d, want 1", got)
	}
	// The install raised the head to its epoch.
	c.Store(KindTopK, 5, q1, 1, topK(1))
	if _, _, ok := c.Lookup(KindTopK, 5, q1); ok {
		t.Fatal("store predating the install accepted")
	}
}

func TestProductMutationNaNConservative(t *testing.T) {
	c := newCache(8)
	c.Store(KindTopK, 5, q1, 0, topK(1))
	c.Publish(Snapshot{Seq: 1}, Change{Op: InsertProduct, Row: []float64{nan(), 0.9}})
	if c.Stats().Entries != 0 {
		t.Fatal("NaN row must invalidate conservatively")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestPreferenceInsertSplice(t *testing.T) {
	c := newCache(8)
	c.Store(KindTopK, 2, q1, 0, topK(0, 2))
	c.Store(KindKRanks, 2, q1, 0, []Member{{Pref: 1, Rank: 1}, {Pref: 0, Rank: 3}})
	c.Store(KindKRanks, 4, q2, 0, []Member{{Pref: 0, Rank: 2}, {Pref: 1, Rank: 5}}) // short: all of W

	// The new preference ranks q1 at 1 and q2 at 9.
	ranks := map[string]int{key(0, 0, q1): 1, key(0, 0, q2): 9}
	c.Publish(prefSnapshot(4, 4, ranks, nil), Change{Op: InsertPreference, Pref: 3})

	// RTK: rank 1 < k=2, so id 3 joins the answer.
	ints, ep, ok := lookupTopK(c, q1, 2)
	if !ok || ep != 4 || !reflect.DeepEqual(ints, []int{0, 2, 3}) {
		t.Fatalf("topk after insert = %v, epoch %d", ints, ep)
	}
	// RKR full: (1, 3) ties the retained (1, 1) and loses the index
	// tie-break, landing behind it; the old worst (3, 0) is pushed out.
	ms, _, ok := c.Lookup(KindKRanks, 2, q1)
	want := []Member{{Pref: 1, Rank: 1}, {Pref: 3, Rank: 1}}
	if !ok || !reflect.DeepEqual(ms, want) {
		t.Fatalf("kranks after insert = %v, want %v", ms, want)
	}
	// RKR short: the new preference is appended at its exact rank even
	// though it is worse than everything retained.
	ms, _, ok = c.Lookup(KindKRanks, 4, q2)
	want = []Member{{Pref: 0, Rank: 2}, {Pref: 1, Rank: 5}, {Pref: 3, Rank: 9}}
	if !ok || !reflect.DeepEqual(ms, want) {
		t.Fatalf("short kranks after insert = %v, want %v", ms, want)
	}
}

func TestPreferenceDelete(t *testing.T) {
	c := newCache(8)
	c.Store(KindTopK, 2, q1, 0, topK(0, 1, 3))
	c.Store(KindKRanks, 2, q1, 0, []Member{{Pref: 3, Rank: 0}, {Pref: 0, Rank: 2}}) // strict cut of 5
	c.Store(KindKRanks, 9, q2, 0, []Member{{Pref: 1, Rank: 0}, {Pref: 0, Rank: 2}, {Pref: 4, Rank: 7},
		{Pref: 2, Rank: 8}, {Pref: 3, Rank: 8}}) // short: all 5 of W
	c.Publish(Snapshot{Seq: 6, NumPrefs: 4}, Change{Op: DeletePreference, Pref: 1})

	// RTK: id 1 leaves, 3 renumbers to 2.
	ints, ep, ok := lookupTopK(c, q1, 2)
	if !ok || ep != 6 || !reflect.DeepEqual(ints, []int{0, 2}) {
		t.Fatalf("topk after delete = %v, epoch %d", ints, ep)
	}
	// RKR not containing the id: survivors remap.
	ms, _, ok := c.Lookup(KindKRanks, 2, q1)
	want := []Member{{Pref: 2, Rank: 0}, {Pref: 0, Rank: 2}}
	if !ok || !reflect.DeepEqual(ms, want) {
		t.Fatalf("kranks after delete = %v, want %v", ms, want)
	}
	// RKR containing the id but holding all of W: exact rewrite.
	ms, _, ok = c.Lookup(KindKRanks, 9, q2)
	want = []Member{{Pref: 0, Rank: 2}, {Pref: 3, Rank: 7}, {Pref: 1, Rank: 8}, {Pref: 2, Rank: 8}}
	if !ok || !reflect.DeepEqual(ms, want) {
		t.Fatalf("full kranks after delete = %v, want %v", ms, want)
	}

	// RKR strict cut containing the id: the successor is unknown, so the
	// entry must go.
	c.Store(KindKRanks, 2, q3, 6, []Member{{Pref: 1, Rank: 0}, {Pref: 2, Rank: 1}})
	c.Publish(Snapshot{Seq: 7, NumPrefs: 3}, Change{Op: DeletePreference, Pref: 1})
	if _, _, ok := c.Lookup(KindKRanks, 2, q3); ok {
		t.Fatal("strict-cut entry containing the deleted id survived")
	}
}

// TestPreferenceSweepSkipsFreshEntries pins the publish window: mutators
// install the new epoch before they publish it to the registry, so a
// concurrent scan can store an answer already computed against the new
// epoch first. Such entries already reflect the mutation and must not be
// rewritten a second time.
func TestPreferenceSweepSkipsFreshEntries(t *testing.T) {
	c := newCache(8)
	// Stored by a scan that snapshotted epoch 4 (the post-insert epoch):
	// the answer already contains the new id 3.
	c.Store(KindTopK, 2, q1, 4, topK(0, 3))
	c.Store(KindKRanks, 2, q2, 4, []Member{{Pref: 3, Rank: 0}, {Pref: 1, Rank: 2}})
	c.Publish(prefSnapshot(4, 4, nil, nil), Change{Op: InsertPreference, Pref: 3})
	ints, ep, ok := lookupTopK(c, q1, 2)
	if !ok || ep != 4 || !reflect.DeepEqual(ints, []int{0, 3}) {
		t.Fatalf("fresh topk entry rewritten: %v, epoch %d", ints, ep)
	}
	ms, _, ok := c.Lookup(KindKRanks, 2, q2)
	want := []Member{{Pref: 3, Rank: 0}, {Pref: 1, Rank: 2}}
	if !ok || !reflect.DeepEqual(ms, want) {
		t.Fatalf("fresh kranks entry rewritten: %v, want %v", ms, want)
	}

	// Same window for a delete: an answer computed against the
	// post-delete epoch 5 has its ids remapped already.
	c.Store(KindTopK, 2, q3, 5, topK(0, 1))
	c.Publish(Snapshot{Seq: 5, NumPrefs: 3}, Change{Op: DeletePreference, Pref: 1})
	ints, ep, ok = lookupTopK(c, q3, 2)
	if !ok || ep != 5 || !reflect.DeepEqual(ints, []int{0, 1}) {
		t.Fatalf("fresh topk entry remapped twice: %v, epoch %d", ints, ep)
	}
}

// TestPreferenceInsertRewriteBudget: an insert rewrites at most
// RewriteBudget cached entries (hottest first) and drops the stale rest,
// so a big cache never turns one insert into a full-cache rank sweep.
func TestPreferenceInsertRewriteBudget(t *testing.T) {
	c := New()
	c.EnableCache(Config{Size: 8, RewriteBudget: 1}, 0)
	c.Store(KindTopK, 2, q1, 0, topK(0))
	c.Store(KindTopK, 2, q2, 0, topK(1))
	c.Store(KindTopK, 2, q3, 0, topK(2)) // most recently used: gets the rewrite
	evals := 0
	c.Publish(prefSnapshot(1, 6, nil, &evals), Change{Op: InsertPreference, Pref: 5})
	if evals != 1 {
		t.Fatalf("rank evaluations = %d, want 1", evals)
	}
	ints, ep, ok := lookupTopK(c, q3, 2)
	if !ok || ep != 1 || !reflect.DeepEqual(ints, []int{2, 5}) {
		t.Fatalf("hottest entry not rewritten: %v, epoch %d", ints, ep)
	}
	for _, q := range [][]float64{q1, q2} {
		if _, _, ok := c.Lookup(KindTopK, 2, q); ok {
			t.Fatal("stale entry past the budget survived")
		}
	}
	if got := c.Stats().Invalidations; got != 2 {
		t.Fatalf("Invalidations = %d, want 2", got)
	}
}

// A fresh entry is neither rewritten nor charged against the budget nor
// dropped when the budget runs out.
func TestRewriteBudgetIgnoresFreshEntries(t *testing.T) {
	c := New()
	c.EnableCache(Config{Size: 8, RewriteBudget: 1}, 0)
	c.Store(KindTopK, 2, q1, 0, topK(0))
	c.Store(KindTopK, 2, q2, 7, topK(1, 5)) // computed against the new epoch
	c.Publish(prefSnapshot(7, 6, nil, nil), Change{Op: InsertPreference, Pref: 5})
	ints, _, ok := lookupTopK(c, q2, 2)
	if !ok || !reflect.DeepEqual(ints, []int{1, 5}) {
		t.Fatalf("fresh entry disturbed: %v, %v", ints, ok)
	}
	ints, ep, ok := lookupTopK(c, q1, 2)
	if !ok || ep != 7 || !reflect.DeepEqual(ints, []int{0, 5}) {
		t.Fatalf("stale entry not rewritten within budget: %v, epoch %d", ints, ep)
	}
}

func TestStoreOverwrites(t *testing.T) {
	c := newCache(8)
	c.Store(KindTopK, 5, q1, 1, topK(1, 2, 3))
	c.Store(KindTopK, 5, q1, 2, topK(7))
	res, ep, ok := lookupTopK(c, q1, 5)
	if !ok || ep != 2 || !reflect.DeepEqual(res, []int{7}) {
		t.Fatalf("after overwrite = %v, epoch %d", res, ep)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("Entries = %d, want 1", c.Stats().Entries)
	}
}

// The property harness drives a Registry against a brute-force model:
// plain product/preference slices whose ranks are computed by exact
// scans. After every random install three properties must hold: each
// listened answer equals a from-scratch recompute, the emitted events are
// exactly the membership delta, and every cached entry still resident is
// exact too.

// model is the brute-force oracle: the data the registry maintains
// answers over.
type model struct {
	ps [][]float64
	ws [][]float64
}

func (mo *model) clone() *model {
	return &model{ps: append([][]float64(nil), mo.ps...), ws: append([][]float64(nil), mo.ws...)}
}

func (mo *model) rank(wi int, q []float64) int {
	w := mo.ws[wi]
	fq := dot(w, q)
	r := 0
	for _, p := range mo.ps {
		if dot(w, p) < fq {
			r++
		}
	}
	return r
}

// answer is the (kind, q, k) answer in answer order.
func (mo *model) answer(kind Kind, q []float64, k int) []Member {
	ms := make([]Member, len(mo.ws))
	for wi := range mo.ws {
		ms[wi] = Member{Pref: wi, Rank: mo.rank(wi, q)}
	}
	if kind == KindTopK {
		var out []Member
		for _, m := range ms {
			if m.Rank < k {
				out = append(out, Member{Pref: m.Pref})
			}
		}
		return out
	}
	sortKRanks(ms)
	return ms[:min(k, len(ms))]
}

// snapshot wraps a frozen copy of the model as the published epoch: the
// registry's contract is an immutable snapshot.
func (mo *model) snapshot(seq uint64) Snapshot {
	frozen := mo.clone()
	return Snapshot{
		Seq:      seq,
		NumPrefs: len(frozen.ws),
		RankOf: func(wi int, q []float64, cutoff int) (int, bool) {
			r := frozen.rank(wi, q)
			if cutoff > 0 && r >= cutoff {
				return cutoff, false
			}
			return r, true
		},
		Pref:   func(wi int) []float64 { return frozen.ws[wi] },
		Answer: frozen.answer,
	}
}

func randVec(rng *rand.Rand, d int, scale float64) []float64 {
	v := make([]float64, d)
	for j := range v {
		v[j] = rng.Float64() * scale
	}
	return v
}

func randPref(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	sum := 0.0
	for j := range v {
		v[j] = 0.05 + rng.Float64()
		sum += v[j]
	}
	for j := range v {
		v[j] /= sum
	}
	return v
}

type evKey struct {
	t EventType
	p int
}

func drain(l *Listener) map[evKey]int {
	out := map[evKey]int{}
	for {
		select {
		case ev, ok := <-l.Events():
			if !ok {
				return out
			}
			out[evKey{ev.Type, ev.Pref}]++
		default:
			return out
		}
	}
}

// expectedEvents computes the membership delta between old and fresh,
// with prefDelete >= 0 applying the delete renumbering: the deleted
// pref leaves under its old id, survivors compare under new ids.
func expectedEvents(old, fresh []Member, prefDelete int) map[evKey]int {
	oldSet := map[int]bool{}
	for _, m := range old {
		switch {
		case prefDelete < 0 || m.Pref < prefDelete:
			oldSet[m.Pref] = true
		case m.Pref > prefDelete:
			oldSet[m.Pref-1] = true
		}
	}
	newSet := map[int]bool{}
	for _, m := range fresh {
		newSet[m.Pref] = true
	}
	out := map[evKey]int{}
	for _, m := range old {
		if m.Pref == prefDelete {
			out[evKey{Leave, m.Pref}]++
		}
	}
	for p := range oldSet {
		if !newSet[p] {
			out[evKey{Leave, p}]++
		}
	}
	for p := range newSet {
		if !oldSet[p] {
			out[evKey{Enter, p}]++
		}
	}
	return out
}

// TestDiffMatchesFullRecompute is the property test: across random
// install histories, the perturbed-region diff leaves every listened
// entry holding the answer a full recompute produces, emits exactly the
// membership delta as events, examines no more preference vectors than
// the full recompute would have, and every cached entry that survives an
// install is exact for it.
func TestDiffMatchesFullRecompute(t *testing.T) {
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(52000 + trial)))
			d := 2 + rng.Intn(3)
			mo := &model{}
			for i := 0; i < 10+rng.Intn(20); i++ {
				mo.ps = append(mo.ps, randVec(rng, d, 1))
			}
			for i := 0; i < 8+rng.Intn(12); i++ {
				mo.ws = append(mo.ws, randPref(rng, d))
			}
			r := New()
			r.EnableCache(Config{Size: 64, RewriteBudget: 2}, 0)
			var listeners []*Listener
			for i := 0; i < 3; i++ {
				kind := Kind(i % 2)
				q := mo.ps[rng.Intn(len(mo.ps))]
				l, initial, err := r.Subscribe(kind, 1+rng.Intn(4), q, 4096, mo.snapshot(0))
				if err != nil {
					t.Fatal(err)
				}
				if want := byPref(mo.answer(kind, q, l.K())); !reflect.DeepEqual(initial, want) {
					t.Fatalf("listener %d initial %v, want %v", l.ID(), initial, want)
				}
				listeners = append(listeners, l)
			}
			// Cached entries of both kinds at random points, re-stored
			// before every install so each install maintains some.
			type probe struct {
				kind Kind
				k    int
				q    []float64
			}
			probes := make([]probe, 6)
			for i := range probes {
				probes[i] = probe{Kind(i % 2), 1 + rng.Intn(4), randVec(rng, d, 1)}
			}
			for step := 0; step < 25; step++ {
				seq := uint64(step + 1)
				for _, p := range probes {
					r.Store(p.kind, p.k, p.q, seq-1, mo.answer(p.kind, p.q, p.k))
				}
				old := make([][]Member, len(listeners))
				for i, l := range listeners {
					old[i] = l.e.ans
				}
				prefDelete := -1
				var c Change
				switch op := rng.Intn(6); {
				case op == 0: // insert product (sometimes dominating: gate path)
					c = Change{Op: InsertProduct, Row: randVec(rng, d, []float64{1, 3}[rng.Intn(2)])}
					mo.ps = append(mo.ps, c.Row)
				case op == 1 && len(mo.ps) > 2: // delete product
					i := rng.Intn(len(mo.ps))
					c = Change{Op: DeleteProduct, Row: mo.ps[i]}
					mo.ps = append(mo.ps[:i:i], mo.ps[i+1:]...)
				case op == 2: // insert preference
					mo.ws = append(mo.ws, randPref(rng, d))
					c = Change{Op: InsertPreference, Pref: len(mo.ws) - 1}
				case op == 3 && len(mo.ws) > 2: // delete preference
					i := rng.Intn(len(mo.ws))
					mo.ws = append(mo.ws[:i:i], mo.ws[i+1:]...)
					c = Change{Op: DeletePreference, Pref: i}
					prefDelete = i
				default: // batch rebuild
					mo.ps = append(mo.ps, randVec(rng, d, 1), randVec(rng, d, 1))
					mo.ws = append(mo.ws, randPref(rng, d))
					c = Change{Op: Rebuild}
				}
				r.Publish(mo.snapshot(seq), c)
				for i, l := range listeners {
					want := mo.answer(l.Kind(), l.e.q, l.K())
					if l.Lagged() || !reflect.DeepEqual(l.e.ans, want) && !(len(l.e.ans) == 0 && len(want) == 0) {
						t.Fatalf("step %d listener %d (%v, k=%d): answer %v, recompute %v (lagged %v)",
							step, l.ID(), l.Kind(), l.K(), l.e.ans, want, l.Lagged())
					}
					if got, want := drain(l), expectedEvents(old[i], want, prefDelete); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d listener %d: events %v, want %v", step, l.ID(), got, want)
					}
				}
				for _, p := range probes {
					got, _, ok := r.Lookup(p.kind, p.k, p.q)
					want := mo.answer(p.kind, p.q, p.k)
					if ok && !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
						t.Fatalf("step %d %v: cached entry %v after %v, recompute %v", step, p.kind, got, c.Op, want)
					}
				}
			}
			st := r.Stats()
			if st.PrefsDiffEvaluated > st.PrefsDiffFullCost {
				t.Fatalf("diff examined %d preference vectors, full-recompute baseline %d",
					st.PrefsDiffEvaluated, st.PrefsDiffFullCost)
			}
			if st.Lagged != 0 {
				t.Fatalf("unexpected lagged listeners: %+v", st)
			}
		})
	}
}

// TestListenedEntryServesLookups pins the merge of the two kinds of
// entry: a listened answer answers lookups (MonitorHits), ignores
// stores, stays on as a cached answer when its last listener leaves,
// and is removed instead while the cache is off.
func TestListenedEntryServesLookups(t *testing.T) {
	mo := &model{ps: [][]float64{{0.9, 0.9}, {0.1, 0.5}}, ws: [][]float64{{0.5, 0.5}, {0.3, 0.7}}}
	c := newCache(1)
	q := []float64{0.4, 0.4}
	l, _, err := c.Subscribe(KindTopK, 1, q, 8, mo.snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	q[0] = 0.99 // the registry owns a copy of the query
	c.Store(KindTopK, 1, []float64{0.4, 0.4}, 0, topK(7))
	c.Store(KindTopK, 1, q2, 0, topK(1)) // fills the one cached slot
	ans, _, ok := c.Lookup(KindTopK, 1, []float64{0.4, 0.4})
	if want := mo.answer(KindTopK, []float64{0.4, 0.4}, 1); !ok || !reflect.DeepEqual(ans, want) {
		t.Fatalf("listened lookup = %v, %v; want %v", ans, ok, want)
	}
	if st := c.Stats(); st.MonitorHits != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 monitor hit and 2 entries (the listened one pinned)", st)
	}
	c.Unsubscribe(l)
	if _, _, ok := c.Lookup(KindTopK, 1, []float64{0.4, 0.4}); !ok {
		t.Fatal("unlistened answer did not stay on as a cached one")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the cached slot's old tenant evicted", st)
	}

	c.DisableCache()
	l, _, err = c.Subscribe(KindKRanks, 1, q, 8, mo.snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	c.Unsubscribe(l)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d with the cache off and no listener", st.Entries)
	}
}

// TestKRanksDeleteKeepsAnswerOrder: a product delete that moves only
// members lowers their ranks in place, and the answer stays in (rank,
// id) order even when that lets a worse-placed member catch up.
func TestKRanksDeleteKeepsAnswerOrder(t *testing.T) {
	mo := &model{
		ps: [][]float64{{0.4, 0.4}, {0.1, 2}},
		ws: [][]float64{{0.9, 0.1}, {0.5, 0.5}},
	}
	r := New()
	q := []float64{0.5, 0.5}
	l, _, err := r.Subscribe(KindKRanks, 2, q, 8, mo.snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Member{{Pref: 1, Rank: 1}, {Pref: 0, Rank: 2}}; !reflect.DeepEqual(l.e.ans, want) {
		t.Fatalf("initial answer %v, want %v", l.e.ans, want)
	}
	// Only preference 0 scores the deleted row below q.
	row := mo.ps[1]
	mo.ps = mo.ps[:1]
	r.Publish(mo.snapshot(1), Change{Op: DeleteProduct, Row: row})
	if want := mo.answer(KindKRanks, q, 2); !reflect.DeepEqual(l.e.ans, want) {
		t.Fatalf("answer after the delete %v, recompute %v", l.e.ans, want)
	}
	if evs := drain(l); len(evs) != 0 {
		t.Fatalf("membership unchanged, yet events %v", evs)
	}
}

// countingSnapshot is a snapshot whose rank machinery only counts calls:
// the unlistened maintenance policy must not reach it outside the
// budgeted splice.
func countingSnapshot(seq uint64, numPrefs int, calls *int) Snapshot {
	return Snapshot{
		Seq:      seq,
		NumPrefs: numPrefs,
		RankOf:   func(int, []float64, int) (int, bool) { *calls++; return 0, true },
		Pref:     func(int) []float64 { *calls++; return []float64{0.5, 0.5} },
		Answer:   func(Kind, []float64, int) []Member { *calls++; return nil },
	}
}

// TestUnlistenedRankWork pins the writer-lock bound of the cached
// entries: product mutations, preference deletes and rebuilds evaluate
// no rank for them, and a preference insert evaluates at most the
// rewrite budget.
func TestUnlistenedRankWork(t *testing.T) {
	const budget, entries = 3, 10
	c := New()
	c.EnableCache(Config{Size: 2 * entries, RewriteBudget: budget}, 0)
	fill := func(epoch uint64) {
		for i := 0; i < entries; i++ {
			q := []float64{float64(i), 1}
			c.Store(KindTopK, 2, q, epoch, topK(0, 1))
			c.Store(KindKRanks, 2, q, epoch, []Member{{Pref: 0, Rank: 0}, {Pref: 1, Rank: 1}})
		}
	}
	calls := 0
	fill(0)
	c.Publish(countingSnapshot(1, 5, &calls), Change{Op: InsertProduct, Row: []float64{3.5, 0}})
	fill(1)
	c.Publish(countingSnapshot(2, 5, &calls), Change{Op: DeleteProduct, Row: []float64{0, 3}})
	fill(2)
	c.Publish(countingSnapshot(3, 4, &calls), Change{Op: DeletePreference, Pref: 1})
	fill(3)
	c.Publish(countingSnapshot(4, 4, &calls), Change{Op: Rebuild})
	if calls != 0 {
		t.Fatalf("cached entries made %d rank calls on product, delete and rebuild installs", calls)
	}
	fill(4)
	c.Publish(countingSnapshot(5, 5, &calls), Change{Op: InsertPreference, Pref: 4})
	if calls != budget {
		t.Fatalf("preference insert made %d rank calls, want the budget %d", calls, budget)
	}
	if st := c.Stats(); st.Entries != budget {
		t.Fatalf("%d entries after the insert, want the %d rewritten", st.Entries, budget)
	}
}

// TestLookupDuringListenedRecompute: while a listened entry's recompute
// is blocked inside Publish, lookups of another key — and of the
// listened key, which still serves the previous epoch — return.
func TestLookupDuringListenedRecompute(t *testing.T) {
	mo := &model{ps: [][]float64{{0.9, 0.9}, {0.1, 0.5}}, ws: [][]float64{{0.5, 0.5}, {0.3, 0.7}}}
	c := newCache(8)
	q := []float64{0.4, 0.4}
	if _, _, err := c.Subscribe(KindTopK, 1, q, 8, mo.snapshot(0)); err != nil {
		t.Fatal(err)
	}
	c.Store(KindTopK, 1, q2, 0, topK(1))

	entered, release := make(chan struct{}), make(chan struct{})
	s := mo.snapshot(1)
	answer := s.Answer
	s.Answer = func(kind Kind, q []float64, k int) []Member {
		close(entered)
		<-release
		return answer(kind, q, k)
	}
	published := make(chan struct{})
	go func() {
		c.Publish(s, Change{Op: Rebuild})
		close(published)
	}()
	<-entered
	looked := make(chan uint64, 1)
	go func() {
		_, ep, _ := c.Lookup(KindTopK, 1, q2) // dropped by the rebuild: a miss
		_, ep2, _ := c.Lookup(KindTopK, 1, q)
		looked <- ep + ep2
	}()
	select {
	case ep := <-looked:
		if ep != 0 {
			t.Errorf("lookups during the recompute served epoch %d, want the previous epoch 0", ep)
		}
	case <-time.After(5 * time.Second):
		t.Error("lookup blocked behind a listened entry's recompute")
	}
	close(release)
	<-published
	if _, ep, ok := c.Lookup(KindTopK, 1, q); !ok || ep != 1 {
		t.Fatalf("listened entry after the install: hit %v at epoch %d, want epoch 1", ok, ep)
	}
}

func TestSubscribeValidation(t *testing.T) {
	mo := &model{ps: [][]float64{{0.5, 0.5}}, ws: [][]float64{{0.5, 0.5}}}
	r := New()
	if _, _, err := r.Subscribe(KindTopK, 0, []float64{0.5, 0.5}, 8, mo.snapshot(0)); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := r.Subscribe(Kind(9), 1, []float64{0.5, 0.5}, 8, mo.snapshot(0)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestSubscriberLimit(t *testing.T) {
	mo := &model{ps: [][]float64{{0.5, 0.5}}, ws: [][]float64{{0.5, 0.5}}}
	r := New()
	r.SetLimit(1)
	l, _, err := r.Subscribe(KindTopK, 1, []float64{0.5, 0.5}, 8, mo.snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Subscribe(KindTopK, 1, []float64{0.5, 0.5}, 8, mo.snapshot(0)); err == nil {
		t.Fatal("second subscribe above the limit accepted")
	}
	r.SetLimit(2)
	l2, _, err := r.Subscribe(KindTopK, 1, []float64{0.5, 0.5}, 8, mo.snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	if l2.e != l.e {
		t.Fatal("two listeners of one (kind, k, q) hold separate entries")
	}
	if !r.Unsubscribe(l) {
		t.Fatal("unsubscribe of a live listener reported false")
	}
	if r.Unsubscribe(l) {
		t.Fatal("double unsubscribe reported true")
	}
	if _, ok := <-l.Events(); ok {
		t.Fatal("channel still open after unsubscribe")
	}
	if l.Lagged() {
		t.Fatal("unsubscribed listener reports lagged")
	}
	if st := r.Stats(); st.Listeners != 1 || st.Subscribed != 2 || st.Unsubscribed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLaggedConsumerCancelled pins the overflow policy: a full buffer
// cancels the listener instead of dropping events silently.
func TestLaggedConsumerCancelled(t *testing.T) {
	mo := &model{
		ps: [][]float64{{0.9, 0.9}},
		ws: [][]float64{{0.5, 0.5}, {0.3, 0.7}},
	}
	r := New()
	// Listen to a point every preference ranks first; buffer of one.
	l, initial, err := r.Subscribe(KindTopK, 1, []float64{0.1, 0.1}, 1, mo.snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != 2 {
		t.Fatalf("initial members %v, want both preferences", initial)
	}
	// A product strictly below the query point evicts both members: two
	// leave events into a one-slot buffer.
	p := []float64{0.01, 0.01}
	mo.ps = append(mo.ps, p)
	r.Publish(mo.snapshot(1), Change{Op: InsertProduct, Row: p})
	if !l.Lagged() {
		t.Fatal("overflowed listener not lagged")
	}
	// The buffered prefix is still readable, then the channel closes.
	if ev, ok := <-l.Events(); !ok || ev.Type != Leave {
		t.Fatalf("buffered event = %v, %v", ev, ok)
	}
	if _, ok := <-l.Events(); ok {
		t.Fatal("channel open after lag cancellation")
	}
	if st := r.Stats(); st.Lagged != 1 || st.Listeners != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKindStrings(t *testing.T) {
	if KindTopK.String() != "reverse-topk" || KindKRanks.String() != "reverse-kranks" {
		t.Fatal("kind names drifted from the wire protocol")
	}
	if Enter.String() != "enter" || Leave.String() != "leave" {
		t.Fatal("event type names drifted from the wire protocol")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind must still print")
	}
}
