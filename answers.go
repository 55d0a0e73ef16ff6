package gridrank

// Maintained answers (internal/answers): the answer cache and continuous
// subscriptions are one registry of exact (kind, k, q) answers. An entry
// nobody listens to is a cached answer, looked up before the scan in
// query.go; an entry with listeners is a subscription, whose changes
// arrive as enter/leave events and whose answer serves lookups too.
// mutate.go hands every installed epoch to the registry with one publish
// call under ix.mu, so each entry is exact for the new epoch before the
// mutation returns. DESIGN.md §12 argues the soundness.

import (
	"context"
	"fmt"
	"time"

	"gridrank/internal/algo"
	"gridrank/internal/answers"
	"gridrank/internal/flight"
	"gridrank/internal/trace"
)

// CacheStats is a snapshot of the answer cache's configuration and
// lifetime counters.
type CacheStats struct {
	// Size and TTL echo the cache's configuration (TTL 0 = no expiry).
	// Size bounds the unsubscribed entries; subscribed ones are pinned.
	Size int
	TTL  time.Duration
	// Entries is the current resident entry count, subscribed entries
	// included.
	Entries int

	Hits           int64 // queries answered without a scan
	MonitorHits    int64 // the hits a subscribed entry answered
	Misses         int64 // queries that fell through to the scan
	Stores         int64 // answers accepted into the cache
	RejectedStores int64 // answers refused for predating a mutation
	Invalidations  int64 // entries dropped by single-row mutations
	Flushes        int64 // full flushes (batch mutations)
	Evictions      int64 // entries evicted by the LRU bound
	Expirations    int64 // entries removed past their TTL
}

// EnableCache attaches an answer cache holding up to size entries, each
// living at most ttl (0 = no expiry). Cached answers are kept exact
// across epochs by the mutation paths, so enabling the cache never
// changes any answer — only how fast repeated queries return. Enabling
// replaces any existing cache (dropping its entries); it is safe while
// queries and mutations are in flight.
func (ix *Index) EnableCache(size int, ttl time.Duration) error {
	if size <= 0 {
		return fmt.Errorf("gridrank: cache size must be positive, got %d", size)
	}
	if ttl < 0 {
		return fmt.Errorf("gridrank: cache TTL must be non-negative, got %v", ttl)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// Serialized with mutators under ix.mu: no mutation can land between
	// reading the epoch and enabling the cache, so a scan that started
	// against an older epoch can never seed it.
	ix.registry().EnableCache(answers.Config{Size: size, TTL: ttl}, ix.snap().seq)
	return nil
}

// DisableCache detaches the answer cache, dropping its entries. Queries
// fall through to the scan again; subscriptions are unaffected.
func (ix *Index) DisableCache() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if r := ix.answers.Load(); r != nil {
		r.DisableCache()
	}
}

// CacheEnabled reports whether an answer cache is attached.
func (ix *Index) CacheEnabled() bool {
	r := ix.answers.Load()
	return r != nil && r.CacheEnabled()
}

// CacheStats returns the answer cache's counters; ok is false when no
// cache is attached.
func (ix *Index) CacheStats() (stats CacheStats, ok bool) {
	if !ix.CacheEnabled() {
		return CacheStats{}, false
	}
	st := ix.answers.Load().Stats()
	return CacheStats{
		Size:           st.Size,
		TTL:            st.TTL,
		Entries:        st.Entries,
		Hits:           st.Hits,
		MonitorHits:    st.MonitorHits,
		Misses:         st.Misses,
		Stores:         st.Stores,
		RejectedStores: st.RejectedStores,
		Invalidations:  st.Invalidations,
		Flushes:        st.Flushes,
		Evictions:      st.Evictions,
		Expirations:    st.Expirations,
	}, true
}

// SubKind selects the query a subscription monitors.
type SubKind = answers.Kind

// Subscription kinds.
const (
	// SubReverseTopK monitors the reverse top-k answer set of (q, k).
	SubReverseTopK = answers.KindTopK
	// SubReverseKRanks monitors the reverse k-ranks answer set of (q, k).
	SubReverseKRanks = answers.KindKRanks
)

// SubEvent is one enter/leave change of a subscription's answer set.
type SubEvent = answers.Event

// Subscription event types.
const (
	SubEnter = answers.Enter
	SubLeave = answers.Leave
)

// SubMember is one current member of a subscription's answer set. Rank
// is the member's exact rank for reverse k-ranks and 0 for reverse top-k.
type SubMember = answers.Member

// ErrTooManySubscribers reports a Subscribe against a full registry
// (see SetSubscriberLimit).
var ErrTooManySubscribers = answers.ErrLimit

// DefaultSubEventBuffer is the per-subscription event buffer used when
// Subscribe is called with buffer <= 0.
const DefaultSubEventBuffer = 256

// SubStats is a snapshot of the subscription counters.
type SubStats struct {
	Monitors     int64 // currently registered subscriptions
	Subscribed   int64 // subscriptions ever registered
	Unsubscribed int64 // subscriptions closed by their owners
	Events       int64 // enter/leave events delivered
	Lagged       int64 // subscriptions cancelled for a full buffer

	DiffPasses int64 // single-mutation epochs diffed incrementally
	FullPasses int64 // rebuild epochs recomputed per subscribed answer
	GatedSkips int64 // subscribed answer×epoch pairs skipped by the dominance gate

	PrefsDiffEvaluated    int64 // preference vectors examined by diff passes
	PrefsDiffFullCost     int64 // what full recomputes would have examined there
	PrefsRebuildEvaluated int64 // preference vectors examined on rebuild epochs
}

// Subscription is a live monitor over one reverse rank answer set.
// Subscriptions to the same (q, k, kind) share one maintained answer.
type Subscription struct {
	ix      *Index
	l       *answers.Listener
	initial []SubMember
}

// ID returns the subscription's index-unique id.
func (s *Subscription) ID() uint64 { return s.l.ID() }

// Kind returns the monitored query kind.
func (s *Subscription) Kind() SubKind { return s.l.Kind() }

// K returns the monitored k.
func (s *Subscription) K() int { return s.l.K() }

// Query returns a copy of the monitored point.
func (s *Subscription) Query() Vector { return s.l.Query() }

// Initial returns the answer set at subscribe time, ascending by
// preference id. Events describe changes relative to it.
func (s *Subscription) Initial() []SubMember { return s.initial }

// Events is the subscription's event stream. An epoch's events are
// fully buffered before the mutation that installed it returns. The
// channel closes when the subscription ends — via Close, or when the
// consumer fell behind (Lagged reports which).
func (s *Subscription) Events() <-chan SubEvent { return s.l.Events() }

// Lagged reports that the index cancelled this subscription because its
// event buffer overflowed: the stream is incomplete and the consumer
// must re-subscribe to resynchronize.
func (s *Subscription) Lagged() bool { return s.l.Lagged() }

// Close ends the subscription and closes its event channel. Closing an
// already-ended subscription is a no-op. The answer stays on as a cached
// one while the cache is enabled.
func (s *Subscription) Close() {
	s.ix.mu.Lock()
	defer s.ix.mu.Unlock()
	if s.ix.registry().Unsubscribe(s.l) {
		s.ix.recordSubEvent(flight.OpUnsubscribe, s.K(), subKindCode(s.Kind()), int64(s.ID()))
	}
}

// SetSubscriberLimit bounds the number of live subscriptions (0 =
// unlimited, the default). Lowering the limit below the current count
// keeps existing subscriptions and only refuses new ones.
func (ix *Index) SetSubscriberLimit(n int) error {
	if n < 0 {
		return fmt.Errorf("gridrank: subscriber limit must be non-negative, got %d", n)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.registry().SetLimit(n)
	return nil
}

// SetSubscriptionTracer attaches a tracer to the subscription diff
// pass: each epoch published to live subscriptions records a span tree
// under the tracer's usual sampling rules. nil detaches.
func (ix *Index) SetSubscriptionTracer(t *trace.Tracer) {
	ix.mu.Lock()
	ix.subTracer = t
	ix.mu.Unlock()
}

// Subscribe registers a monitor over the (q, k, kind) reverse rank
// answer set. The initial membership (Subscription.Initial) is computed
// against the epoch current at the call — or taken from the cache when
// the answer is resident — and every later epoch's changes arrive on
// Events before the installing mutation returns. The index keeps its own
// copy of q. buffer bounds undelivered events (<= 0 uses
// DefaultSubEventBuffer); a subscriber that lets it fill is cancelled
// with Lagged set rather than sent a gapped stream.
func (ix *Index) Subscribe(q Vector, k int, kind SubKind, buffer int) (*Subscription, error) {
	if err := ix.checkQuery(q, k); err != nil {
		return nil, err
	}
	if buffer <= 0 {
		buffer = DefaultSubEventBuffer
	}
	// Serialized with mutators: the initial set and the event stream
	// splice at exactly one epoch boundary.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	l, initial, err := ix.registry().Subscribe(kind, k, q, buffer, snapshotOf(ix.snap()))
	if err != nil {
		return nil, err
	}
	ix.recordSubEvent(flight.OpSubscribe, k, subKindCode(kind), int64(l.ID()))
	return &Subscription{ix: ix, l: l, initial: initial}, nil
}

// subKindCode maps a subscription kind to its flight-record Aux1 code.
func subKindCode(kind SubKind) int64 {
	if kind == SubReverseKRanks {
		return 1
	}
	return 0
}

// SubscriptionStats returns the subscription counters. The zero value
// is returned before the first Subscribe.
func (ix *Index) SubscriptionStats() SubStats {
	r := ix.answers.Load()
	if r == nil {
		return SubStats{}
	}
	st := r.Stats()
	return SubStats{
		Monitors:              st.Listeners,
		Subscribed:            st.Subscribed,
		Unsubscribed:          st.Unsubscribed,
		Events:                st.Events,
		Lagged:                st.Lagged,
		DiffPasses:            st.DiffPasses,
		FullPasses:            st.FullPasses,
		GatedSkips:            st.GatedSkips,
		PrefsDiffEvaluated:    st.PrefsDiffEvaluated,
		PrefsDiffFullCost:     st.PrefsDiffFullCost,
		PrefsRebuildEvaluated: st.PrefsRebuildEvaluated,
	}
}

// registry returns the maintained-answer registry, creating it on first
// use (ix.mu held).
func (ix *Index) registry() *answers.Registry {
	if r := ix.answers.Load(); r != nil {
		return r
	}
	r := answers.New()
	ix.answers.Store(r)
	return r
}

// snapshotOf wraps an epoch's rank machinery as the closures the
// registry maintains answers with.
func snapshotOf(e *epoch) answers.Snapshot {
	return answers.Snapshot{
		Seq:      e.seq,
		NumPrefs: e.wm.Len(),
		RankOf:   e.gir.RankOf,
		Pref:     e.wm.Row,
		// A recompute is part of an epoch install, not a query, so its
		// scan counts are dropped.
		Answer: func(kind answers.Kind, q []float64, k int) []answers.Member {
			if kind == answers.KindTopK {
				ids, _, _ := e.gir.ReverseTopKOpts(context.Background(), q, k, algo.QueryOpts{})
				return topKMembers(ids)
			}
			ms, _, _ := e.gir.ReverseKRanksOpts(context.Background(), q, k, algo.QueryOpts{})
			return kRanksMembers(ms)
		},
	}
}

// publish hands the epoch ne, just stored, to the registry: the one
// call every install makes, under ix.mu, so each maintained answer —
// cached or subscribed — is exact for ne before the mutation returns.
// With live subscriptions and a tracer attached, the pass records a
// sub.diff trace.
func (ix *Index) publish(ne *epoch, c answers.Change) {
	r := ix.answers.Load()
	if r == nil {
		return
	}
	var tr *trace.Trace
	if ix.subTracer.Enabled() && r.Stats().Listeners > 0 {
		tr = ix.subTracer.Start("sub.diff", trace.Parent{})
		tr.SetAttr("op", c.Op.String())
		tr.SetAttr("epoch", ne.seq)
	}
	sp := tr.StartSpan("publish")
	r.Publish(snapshotOf(ne), c)
	sp.End()
	if tr != nil {
		st := r.Stats()
		tr.SetAttr("monitors", st.Listeners)
		tr.SetAttr("prefsDiffEvaluated", st.PrefsDiffEvaluated)
		tr.Finish()
	}
}
