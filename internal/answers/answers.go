// Package answers keeps reverse rank answers exact across epoch
// installs. One registry holds every maintained answer, keyed by (query
// kind, k, exact query bits). An entry owns a copy of its query, its
// answer in answer order and the epoch that answer is valid for, and it
// has zero or more listeners:
//
//   - An entry nobody listens to is a cached answer. The query path looks
//     it up before scanning and stores the scan's answer into it; an LRU
//     bound and an optional TTL evict it. Each install keeps it exact by
//     the cheapest sound rule: it is dropped when a mutated product row
//     can move its answer or the epoch was rebuilt, its ids are remapped
//     on a preference delete, and the new preference is spliced in, within
//     a rewrite budget, on a preference insert.
//   - An entry with listeners is a subscription. It is pinned outside the
//     LRU bound; each install diffs its answer and sends the enter/leave
//     events to every listener, and lookups are answered from it like
//     from any cached entry. When its last listener leaves it stays on as
//     a cached answer.
//
// Both kinds rest on one exact argument: preference weights are
// non-negative, so a product row p >= q componentwise never scores below
// q, and adding or removing it moves no rank(w, q) (DESIGN.md §12).
//
// Publish, Subscribe, Unsubscribe, EnableCache and DisableCache must be
// serialized by the caller (the index's writer lock does). Lookup and
// Store are safe from any goroutine. Publish holds the registry lock for
// the cached entries' maintenance only, never while a listened entry's
// diff evaluates ranks, so lookups do not wait on a recompute.
package answers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects which reverse rank query an entry answers.
type Kind uint8

const (
	// KindTopK is reverse top-k: every preference placing q within its
	// top-k products, answered by ascending preference id.
	KindTopK Kind = iota
	// KindKRanks is reverse k-ranks: the k preferences ranking q best,
	// answered by ascending (rank, id).
	KindKRanks
)

// String returns the wire name of the kind.
func (k Kind) String() string {
	switch k {
	case KindTopK:
		return "reverse-topk"
	case KindKRanks:
		return "reverse-kranks"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Member is one preference of an answer. Rank is its exact rank for
// KindKRanks and 0 for KindTopK (top-k membership is a threshold, not an
// ordering).
type Member struct {
	Pref int
	Rank int
}

// EventType distinguishes enter from leave.
type EventType uint8

const (
	// Enter reports a preference joining an answer.
	Enter EventType = iota
	// Leave reports a preference leaving an answer.
	Leave
)

// String returns the wire name of the event type.
func (t EventType) String() string {
	if t == Enter {
		return "enter"
	}
	return "leave"
}

// Event is one membership change of a listened answer.
type Event struct {
	// Seq is the epoch whose install caused the change.
	Seq uint64
	// Type is Enter or Leave.
	Type EventType
	// Pref is the preference id in the published epoch's numbering. One
	// exception: when a preference delete removes a member, its Leave
	// carries the pre-delete id (it has no post-delete id); every other id
	// that epoch emits is post-delete.
	Pref int
}

// Op names the kind of epoch install a Change describes.
type Op uint8

const (
	InsertProduct Op = iota
	DeleteProduct
	InsertPreference
	DeletePreference
	// Rebuild is an epoch built from scratch (the batch mutations).
	Rebuild
)

// String returns the op's trace name.
func (o Op) String() string {
	return [...]string{"insert_product", "delete_product", "insert_preference", "delete_preference", "rebuild"}[o]
}

// Change is what one epoch install did.
type Change struct {
	Op Op
	// Row is the inserted product, or the deleted product's former
	// attributes (InsertProduct, DeleteProduct).
	Row []float64
	// Pref is the inserted preference's id, always the largest, or the
	// deleted preference's pre-delete id (InsertPreference,
	// DeletePreference).
	Pref int
}

func (c Change) product() bool { return c.Op == InsertProduct || c.Op == DeleteProduct }

// Snapshot is the published epoch a Change produced, as closures over
// its rank machinery; the registry never sees the index types.
type Snapshot struct {
	// Seq is the epoch's sequence number, stamped on events.
	Seq uint64
	// NumPrefs is |W| of the epoch.
	NumPrefs int
	// RankOf returns rank(W[wi], q) bounded by cutoff: ok reports the
	// exact rank is below cutoff; cutoff <= 0 means unbounded.
	RankOf func(wi int, q []float64, cutoff int) (int, bool)
	// Pref returns preference vector wi (read-only).
	Pref func(wi int) []float64
	// Answer computes the (kind, q, k) answer from scratch, in answer
	// order.
	Answer func(kind Kind, q []float64, k int) []Member
}

// DefaultRewriteBudget is the per-insert rank-evaluation bound used when
// Config.RewriteBudget is 0.
const DefaultRewriteBudget = 512

// Config configures the answer cache: the entries nobody listens to.
type Config struct {
	// Size bounds the cached entries (positive); the least recently used
	// one is evicted beyond it. Listened entries do not count.
	Size int
	// TTL bounds a cached entry's lifetime; an expired entry answers as a
	// miss and is removed on contact. 0 disables expiry.
	TTL time.Duration
	// RewriteBudget bounds the rank evaluations one preference insert
	// spends on cached entries while holding the registry lock; entries
	// past it (coldest first) are dropped instead of rewritten, which is
	// always sound — they just become misses. 0 means
	// DefaultRewriteBudget; negative means unbounded.
	RewriteBudget int
	// Now overrides the clock, for tests. nil means time.Now.
	Now func() time.Time
}

// Stats is the registry's configuration and counter snapshot.
type Stats struct {
	Size    int           // cache capacity (0 while the cache is off)
	TTL     time.Duration // cache entry lifetime (0 = none)
	Entries int           // resident entries, listened ones included

	Hits           int64 // lookups answered by a resident entry
	MonitorHits    int64 // the hits a listened entry answered
	Misses         int64 // lookups finding no usable entry
	Stores         int64 // scan answers accepted
	RejectedStores int64 // stores refused for predating the latest install
	Invalidations  int64 // cached entries dropped by single-mutation installs
	Flushes        int64 // rebuild installs, each dropping every cached entry
	Evictions      int64 // cached entries evicted by the LRU bound
	Expirations    int64 // cached entries removed past their TTL

	Listeners    int64 // live listeners (gauge)
	Subscribed   int64 // listeners ever registered
	Unsubscribed int64 // listeners removed by Unsubscribe
	Events       int64 // events delivered into listener buffers
	Lagged       int64 // listeners cancelled for a full buffer

	DiffPasses int64 // single-mutation installs with a listened entry
	FullPasses int64 // rebuild installs with a listened entry
	GatedSkips int64 // listened entry × install pairs skipped by the dominance gate

	// PrefsDiffEvaluated counts the preferences whose rank the diff of a
	// listened entry evaluated on single-mutation installs — an O(d)
	// dominance or score gate check is not an evaluation — and
	// PrefsDiffFullCost what recomputing those entries would have
	// examined (|W| per entry per install). PrefsRebuildEvaluated is the
	// rebuild installs' cost, kept apart so the comparison is like for
	// like.
	PrefsDiffEvaluated    int64
	PrefsDiffFullCost     int64
	PrefsRebuildEvaluated int64
}

// ErrLimit reports a Subscribe against a full registry.
var ErrLimit = errors.New("answers: subscriber limit reached")

// entry is one maintained answer. An answer slice is never written in
// place once it is stored: every update swaps in a new slice, so Lookup
// can hand out the stored one.
type entry struct {
	key     string
	kind    Kind
	k       int
	q       []float64
	ans     []Member  // in answer order
	epoch   uint64    // epoch the answer was computed or last maintained against
	expires time.Time // zero unless cached under a TTL

	listeners []*Listener
	// prev/next link the cached (unlistened) entries, most recently used
	// first.
	prev, next *entry
}

// Listener is one subscription to an entry's answer.
type Listener struct {
	id     uint64
	e      *entry
	ch     chan Event
	lagged atomic.Bool
	closed bool // under the registry lock
}

// ID returns the listener's registry-unique id.
func (l *Listener) ID() uint64 { return l.id }

// Kind returns the listened query kind.
func (l *Listener) Kind() Kind { return l.e.kind }

// K returns the listened k.
func (l *Listener) K() int { return l.e.k }

// Query returns a copy of the listened query point.
func (l *Listener) Query() []float64 { return slices.Clone(l.e.q) }

// Events is the listener's event stream. It is closed when the listener
// is cancelled — by Unsubscribe, or by the registry when the consumer
// fell behind (Lagged distinguishes).
func (l *Listener) Events() <-chan Event { return l.ch }

// Lagged reports that the registry cancelled this listener because its
// event buffer overflowed.
func (l *Listener) Lagged() bool { return l.lagged.Load() }

// Registry is the set of maintained answers. The zero value is not
// usable; use New.
type Registry struct {
	mu      sync.Mutex
	cacheOn atomic.Bool
	cfg     Config // the cache's; zero while it is off
	limit   int    // max live listeners; <= 0 = unlimited
	entries map[string]*entry
	// lruHead/lruTail link the cached entries, most recently used first;
	// cached counts them.
	lruHead, lruTail *entry
	cached           int
	watched          []*entry // the listened entries, in subscription order
	// head is the epoch of the latest install; stores computed against
	// an older epoch are rejected, since that install could not see them.
	head      uint64
	nextID    uint64
	listeners int
	st        Stats
}

// New returns an empty registry with the cache off and no listener
// limit.
func New() *Registry { return &Registry{entries: make(map[string]*entry)} }

// EnableCache turns the answer cache on under cfg, dropping every cached
// entry, and rejects stores computed against epochs before head.
func (r *Registry) EnableCache(cfg Config, head uint64) {
	if cfg.RewriteBudget == 0 {
		cfg.RewriteBudget = DefaultRewriteBudget
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropCached()
	r.cfg = cfg
	r.head = max(r.head, head)
	r.cacheOn.Store(true)
}

// DisableCache turns the answer cache off, dropping every cached entry.
// Listened entries stay.
func (r *Registry) DisableCache() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropCached()
	r.cfg = Config{}
	r.cacheOn.Store(false)
}

// CacheEnabled reports whether lookups and stores are on.
func (r *Registry) CacheEnabled() bool { return r.cacheOn.Load() }

// SetLimit changes the live-listener bound (<= 0 = unlimited). A limit
// below the current count keeps existing listeners and refuses new ones.
func (r *Registry) SetLimit(n int) {
	r.mu.Lock()
	r.limit = n
	r.mu.Unlock()
}

// Stats returns the registry's configuration and counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.Size, st.TTL = r.cfg.Size, r.cfg.TTL
	st.Entries = len(r.entries)
	st.Listeners = int64(r.listeners)
	return st
}

// key builds the canonical entry key: kind, k, then the exact bit
// pattern of every query component. Two queries share an entry only
// when they are bitwise identical, so float subtleties (-0 vs +0, NaN
// payloads) can only split entries, never alias them.
func key(kind Kind, k int, q []float64) string {
	b := make([]byte, 1+8+8*len(q))
	b[0] = byte(kind)
	binary.BigEndian.PutUint64(b[1:], uint64(k))
	for i, x := range q {
		binary.BigEndian.PutUint64(b[9+8*i:], math.Float64bits(x))
	}
	return string(b)
}

// Lookup returns the answer resident for (kind, k, q) and the epoch it
// is valid for. The slice is shared and must not be modified.
func (r *Registry) Lookup(kind Kind, k int, q []float64) ([]Member, uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[key(kind, k, q)]
	switch {
	case e == nil:
	case len(e.listeners) > 0:
		r.st.MonitorHits++
	case !e.expires.IsZero() && r.cfg.Now().After(e.expires):
		r.removeCached(e)
		r.st.Expirations++
		e = nil
	default:
		r.moveToFront(e)
	}
	if e == nil {
		r.st.Misses++
		return nil, 0, false
	}
	r.st.Hits++
	return e.ans, e.epoch, true
}

// Store offers a scan answer for (kind, k, q) computed against epoch;
// the registry takes ownership of ans. It is dropped while the cache is
// off, rejected when an install landed after epoch, and ignored for a
// listened entry, whose answer is already maintained exactly.
func (r *Registry) Store(kind Kind, k int, q []float64, epoch uint64, ans []Member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.cacheOn.Load() {
		return
	}
	if epoch < r.head {
		r.st.RejectedStores++
		return
	}
	ky := key(kind, k, q)
	e := r.entries[ky]
	switch {
	case e == nil:
		e = &entry{key: ky, kind: kind, k: k, q: slices.Clone(q)}
		r.entries[ky] = e
		r.pushFront(e)
		if r.cached > r.cfg.Size {
			r.removeCached(r.lruTail)
			r.st.Evictions++
		}
	case len(e.listeners) > 0:
		return
	default:
		r.moveToFront(e)
	}
	e.ans, e.epoch = ans, epoch
	if r.cfg.TTL > 0 {
		e.expires = r.cfg.Now().Add(r.cfg.TTL)
	}
	r.st.Stores++
}

// Subscribe adds a listener to the (kind, k, q) entry, creating the
// entry from s — the epoch current at the call — unless it is resident
// already, and returns the listener with the entry's answer by ascending
// preference id. The entry keeps its own copy of q. buffer bounds the
// undelivered events; a consumer that lets it fill is cancelled.
func (r *Registry) Subscribe(kind Kind, k int, q []float64, buffer int, s Snapshot) (*Listener, []Member, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("answers: k must be positive, got %d", k)
	}
	if kind != KindTopK && kind != KindKRanks {
		return nil, nil, fmt.Errorf("answers: unknown kind %d", kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit > 0 && r.listeners >= r.limit {
		return nil, nil, fmt.Errorf("%w (%d)", ErrLimit, r.limit)
	}
	ky := key(kind, k, q)
	e := r.entries[ky]
	if e == nil {
		// Computed outside the lock, so lookups never wait on it; the
		// caller's serialization keeps the epoch fixed meanwhile.
		r.mu.Unlock()
		ans := s.Answer(kind, q, k)
		r.mu.Lock()
		if e = r.entries[ky]; e == nil { // a racing Store may have added it
			e = &entry{key: ky, kind: kind, k: k, q: slices.Clone(q), ans: ans, epoch: s.Seq}
			r.entries[ky] = e
			r.pushFront(e) // enters as cached; watching moves it out below
		}
	}
	if len(e.listeners) == 0 {
		r.unlink(e)
		r.cached--
		e.expires = time.Time{}
		r.watched = append(r.watched, e)
	}
	l := &Listener{id: r.nextID, e: e, ch: make(chan Event, max(buffer, 1))}
	r.nextID++
	e.listeners = append(e.listeners, l)
	r.listeners++
	r.st.Subscribed++
	return l, byPref(e.ans), nil
}

// Unsubscribe cancels l, closing its event channel. It reports whether
// l was live.
func (r *Registry) Unsubscribe(l *Listener) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l.closed {
		return false
	}
	r.drop(l)
	r.st.Unsubscribed++
	return true
}

// drop closes l and detaches it from its entry. An entry losing its last
// listener stays on as a cached answer while the cache is on — it is
// exact for the current epoch — and is removed otherwise.
func (r *Registry) drop(l *Listener) {
	l.closed = true
	close(l.ch)
	r.listeners--
	e := l.e
	e.listeners = slices.DeleteFunc(e.listeners, func(x *Listener) bool { return x == l })
	if len(e.listeners) > 0 {
		return
	}
	r.watched = slices.DeleteFunc(r.watched, func(x *entry) bool { return x == e })
	if !r.cacheOn.Load() {
		delete(r.entries, e.key)
		return
	}
	r.pushFront(e)
	if r.cfg.TTL > 0 {
		e.expires = r.cfg.Now().Add(r.cfg.TTL)
	}
	if r.cached > r.cfg.Size {
		r.removeCached(r.lruTail)
		r.st.Evictions++
	}
}

// Publish brings every entry to the epoch s that c installed. Cached
// entries are maintained under the lock with no rank work beyond the
// budgeted preference splice; listened entries are diffed outside it.
func (r *Registry) Publish(s Snapshot, c Change) {
	r.mu.Lock()
	r.head = max(r.head, s.Seq)
	if c.Op == Rebuild {
		if r.cacheOn.Load() {
			r.st.Flushes++
		}
		r.dropCached()
	}
	budget := r.cfg.RewriteBudget
	for e := r.lruHead; e != nil; {
		next := e.next
		if !recache(e, s, c, &budget) {
			r.removeCached(e)
			r.st.Invalidations++
		}
		e = next
	}
	watched := slices.Clone(r.watched)
	switch {
	case len(watched) == 0:
	case c.Op == Rebuild:
		r.st.FullPasses++
	default:
		r.st.DiffPasses++
	}
	r.mu.Unlock()
	for _, e := range watched {
		r.notify(e, s, c)
	}
}

// gated is the dominance gate every entry passes first: a mutated
// product row p with p[j] >= q[j] in every dimension scores at least
// f_w(q) under every non-negative w, so it never counts into any
// rank(w, q) and the answer is unchanged.
func gated(e *entry, c Change) bool { return c.product() && !rowAffects(c.Row, e.q) }

// rowAffects reports whether product row p can change any rank relative
// to q: true unless p >= q componentwise. The negated comparison puts NaN
// — and a length mismatch, via the len check — on the conservative side.
func rowAffects(p, q []float64) bool {
	if len(p) != len(q) {
		return true
	}
	for j := range p {
		if !(p[j] >= q[j]) {
			return true
		}
	}
	return false
}

// recache applies c to a cached entry under the registry lock and
// reports whether the entry stays. Entries already tagged with the new
// epoch were stored by a scan of the published epoch, so the change is
// in them already; maintaining them again would apply it twice.
func recache(e *entry, s Snapshot, c Change, budget *int) bool {
	switch {
	case gated(e, c):
		return true
	case c.product():
		return false
	case e.epoch >= s.Seq:
		return true
	case c.Op == InsertPreference:
		if *budget == 0 {
			return false
		}
		if *budget > 0 {
			*budget--
		}
		e.ans, _, _ = splice(e, c.Pref, s)
	default:
		ans, _, refill := remap(e, c.Pref, s.NumPrefs+1)
		if refill {
			return false
		}
		e.ans = ans
	}
	e.epoch = s.Seq
	return true
}

// notify diffs a listened entry against s, then swaps the new answer in
// and fans the events out. The diff reads the entry without the lock:
// only Publish writes a listened entry's answer.
func (r *Registry) notify(e *entry, s Snapshot, c Change) {
	skip := gated(e, c)
	var (
		ans   []Member
		evs   []Event
		evals int
	)
	if !skip {
		ans, evs, evals = e.diff(s, c)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.Op == Rebuild {
		r.st.PrefsRebuildEvaluated += int64(evals)
	} else {
		r.st.PrefsDiffEvaluated += int64(evals)
		r.st.PrefsDiffFullCost += int64(s.NumPrefs)
	}
	if skip {
		r.st.GatedSkips++
		return
	}
	e.ans, e.epoch = ans, s.Seq
	if len(evs) == 0 {
		return
	}
	for _, l := range slices.Clone(e.listeners) {
		for _, ev := range evs {
			if !r.send(l, ev) {
				break
			}
		}
	}
}

// send delivers ev to l without blocking (lock held). A consumer that
// cannot keep up is cancelled instead: a gapped stream would silently
// diverge from the answer.
func (r *Registry) send(l *Listener, ev Event) bool {
	select {
	case l.ch <- ev:
		r.st.Events++
		return true
	default:
		l.lagged.Store(true)
		r.st.Lagged++
		r.drop(l)
		return false
	}
}

// recomputeFanout is where a reverse top-k product-delete diff stops
// probing moved preferences one bounded rank evaluation at a time and
// recomputes the answer with one grouped reverse query: the grid scan
// amortizes its cell classification across all preferences, so a large
// probe fan-out costs more than the query it avoids.
const recomputeFanout = 32

// diff returns a listened entry's answer after c, the events that take
// its listeners there, and the preference ranks it evaluated (a
// recompute costs |W|). Past the dominance gate, a per-preference score
// gate leaves only the preferences under which the mutated row scores
// strictly below q — no other rank moved.
func (e *entry) diff(s Snapshot, c Change) (ans []Member, evs []Event, evals int) {
	old := e.ans
	recompute := func() ([]Member, []Event, int) {
		fresh := s.Answer(e.kind, e.q, e.k)
		return fresh, delta(s.Seq, old, fresh), s.NumPrefs
	}
	moved := func(wi int) bool {
		w := s.Pref(wi)
		return dot(w, c.Row) < dot(w, e.q)
	}
	switch {
	case c.Op == Rebuild:
		return recompute()
	case c.Op == InsertPreference:
		// The new vector is the only candidate; no other rank moved.
		ans, in, out := splice(e, c.Pref, s)
		if out >= 0 {
			evs = append(evs, Event{Seq: s.Seq, Type: Leave, Pref: out})
		}
		if in {
			evs = append(evs, Event{Seq: s.Seq, Type: Enter, Pref: c.Pref})
		}
		return ans, evs, 1
	case c.Op == DeletePreference:
		ans, was, refill := remap(e, c.Pref, s.NumPrefs+1)
		if was {
			evs = append(evs, Event{Seq: s.Seq, Type: Leave, Pref: c.Pref})
		}
		if !refill {
			return ans, evs, 0
		}
		// The vacated seat goes to the best surviving non-member.
		fresh := s.Answer(e.kind, e.q, e.k)
		return fresh, append(evs, delta(s.Seq, ans, fresh)...), s.NumPrefs
	case c.Op == InsertProduct && e.kind == KindTopK:
		// Ranks only grow: members can leave, nobody can enter.
		for _, m := range old {
			if moved(m.Pref) {
				evals++
				if _, ok := s.RankOf(m.Pref, e.q, e.k); !ok {
					evs = append(evs, Event{Seq: s.Seq, Type: Leave, Pref: m.Pref})
					continue
				}
			}
			ans = append(ans, m)
		}
		return ans, evs, evals
	case c.Op == InsertProduct:
		// A non-member's rank can only grow, so the k best change only
		// when a member's rank moved.
		for _, m := range old {
			if moved(m.Pref) {
				return recompute()
			}
		}
		return old, nil, 0
	case e.kind == KindTopK:
		// Product delete: ranks only shrink, so members stay and only
		// moved non-members can enter. A handful get bounded probes; a
		// crowd is cheaper as one grouped reverse query.
		var cand []int
		for wi, j := 0, 0; wi < s.NumPrefs; wi++ {
			for j < len(old) && old[j].Pref < wi {
				j++
			}
			if (j == len(old) || old[j].Pref != wi) && moved(wi) {
				cand = append(cand, wi)
			}
		}
		if len(cand) >= recomputeFanout {
			return recompute()
		}
		var in []Member
		for _, wi := range cand {
			if _, ok := s.RankOf(wi, e.q, e.k); ok {
				in = append(in, Member{Pref: wi})
				evs = append(evs, Event{Seq: s.Seq, Type: Enter, Pref: wi})
			}
		}
		if len(in) == 0 {
			return old, nil, len(cand)
		}
		ans = slices.Concat(old, in)
		slices.SortFunc(ans, prefOrder)
		return ans, evs, len(cand)
	default:
		// K-ranks product delete: every moved rank shrinks by one. While
		// only members moved, each member's (rank, id) stays at or below
		// every non-member's, so the ranks drop in place with no event; a
		// moved non-member can overtake the worst member and recomputes.
		at := make(map[int]int, len(old))
		for i, m := range old {
			at[m.Pref] = i
		}
		ans = slices.Clone(old)
		for wi := 0; wi < s.NumPrefs; wi++ {
			if !moved(wi) {
				continue
			}
			i, member := at[wi]
			if !member {
				return recompute()
			}
			ans[i].Rank--
		}
		sortKRanks(ans)
		return ans, nil, 0
	}
}

// splice admits the new preference id — the largest, so it loses every
// rank tie — into e's answer. It returns the answer, whether id entered,
// and the member a full k-ranks answer pushed out (-1 for none).
func splice(e *entry, id int, s Snapshot) (ans []Member, entered bool, out int) {
	old := e.ans
	if e.kind == KindTopK {
		if _, ok := s.RankOf(id, e.q, e.k); !ok {
			return old, false, -1
		}
		return append(slices.Clip(old), Member{Pref: id}), true, -1
	}
	// A short answer holds every preference, so the newcomer enters at
	// its exact rank; a full one admits it only strictly below the worst
	// retained rank.
	cutoff := 0
	if len(old) >= e.k {
		cutoff = old[len(old)-1].Rank
	}
	rank, ok := s.RankOf(id, e.q, cutoff)
	at := sort.Search(len(old), func(i int) bool { return old[i].Rank > rank })
	if !ok || at >= e.k {
		return old, false, -1
	}
	ans = slices.Insert(slices.Clip(old), at, Member{Pref: id, Rank: rank})
	out = -1
	if len(ans) > e.k {
		out = ans[e.k].Pref
		ans = ans[:e.k]
	}
	return ans, true, out
}

// remap removes the deleted preference id from e's answer and shifts the
// ids above it down by one. Ranks depend only on the products, so no
// surviving preference moves; refill reports a k-ranks answer that was a
// strict cut and lost a member, whose successor is unknown.
func remap(e *entry, id, oldCount int) (ans []Member, was, refill bool) {
	ans = make([]Member, 0, len(e.ans))
	for _, m := range e.ans {
		switch {
		case m.Pref == id:
			was = true
			continue
		case m.Pref > id:
			m.Pref--
		}
		ans = append(ans, m)
	}
	return ans, was, was && e.kind == KindKRanks && len(e.ans) != oldCount
}

// delta is the membership change old → fresh: the leaves, then the
// enters, each by ascending preference id.
func delta(seq uint64, old, fresh []Member) []Event {
	a, b := byPref(old), byPref(fresh)
	var leaves, enters []Event
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || (i < len(a) && a[i].Pref < b[j].Pref):
			leaves = append(leaves, Event{Seq: seq, Type: Leave, Pref: a[i].Pref})
			i++
		case i == len(a) || b[j].Pref < a[i].Pref:
			enters = append(enters, Event{Seq: seq, Type: Enter, Pref: b[j].Pref})
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return append(leaves, enters...)
}

// byPref returns a copy of an answer sorted by preference id.
func byPref(ans []Member) []Member {
	out := slices.Clone(ans)
	slices.SortFunc(out, prefOrder)
	return out
}

func prefOrder(a, b Member) int { return a.Pref - b.Pref }

// sortKRanks restores the k-ranks answer order, ascending (rank, id).
func sortKRanks(ans []Member) {
	slices.SortFunc(ans, func(a, b Member) int {
		if a.Rank != b.Rank {
			return a.Rank - b.Rank
		}
		return a.Pref - b.Pref
	})
}

// dot is the scoring inner product f_w(p).
func dot(w, p []float64) float64 {
	var s float64
	for j := range w {
		s += w[j] * p[j]
	}
	return s
}

// dropCached removes every cached entry (lock held).
func (r *Registry) dropCached() {
	for e := r.lruHead; e != nil; e = e.next {
		delete(r.entries, e.key)
	}
	r.lruHead, r.lruTail, r.cached = nil, nil, 0
}

// pushFront links an entry at the LRU head (lock held).
func (r *Registry) pushFront(e *entry) {
	e.prev, e.next = nil, r.lruHead
	if r.lruHead != nil {
		r.lruHead.prev = e
	}
	r.lruHead = e
	if r.lruTail == nil {
		r.lruTail = e
	}
	r.cached++
}

// moveToFront marks a cached entry most recently used (lock held).
func (r *Registry) moveToFront(e *entry) {
	if r.lruHead == e {
		return
	}
	r.unlink(e)
	r.cached--
	r.pushFront(e)
}

// removeCached unlinks and deletes a cached entry (lock held).
func (r *Registry) removeCached(e *entry) {
	r.unlink(e)
	r.cached--
	delete(r.entries, e.key)
}

// unlink detaches an entry from the LRU list (lock held).
func (r *Registry) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		r.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		r.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}
