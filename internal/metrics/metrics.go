// Package metrics is the server's observability layer: a dependency-free
// registry of per-endpoint request counters, error counters by status
// code, latency histograms with OpenMetrics exemplars, mutation latency
// histograms, Grid-index filter-rate gauges, tracing/export/flight
// counters and Go runtime telemetry, rendered for GET /metrics in
// either the classic Prometheus text exposition format (version 0.0.4)
// or OpenMetrics 1.0 (negotiated by Accept header in the server).
//
// The OpenMetrics rendering differs from the classic one in three ways:
// counter families are announced by their base name (the _total suffix
// stays on the samples, per the OpenMetrics spec), histogram bucket
// lines may carry a `# {trace_id="..."} value timestamp` exemplar
// linking the bucket to a recent trace, and the scrape ends with the
// mandatory `# EOF` marker.
//
// Runtime telemetry (goroutines, heap, GC pause total, GOMAXPROCS,
// build info) is gathered at scrape time — one runtime.ReadMemStats per
// scrape, no background sampler goroutine.
//
// The hot path is lock-free: requests, latencies and filter counts go
// through atomics; the only mutexes guard endpoint creation (once per
// endpoint name) and the rare error-code map insert. Scrapes take no
// locks on the hot path either — they read the same atomics, so a
// scrape concurrent with traffic sees a consistent-enough snapshot (the
// usual Prometheus counter semantics).
package metrics

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond cache hits to the multi-second scans of a |W| in the
// millions. The terminal +Inf bucket is implicit.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry aggregates per-endpoint metrics and renders them for
// scraping. The zero value is not usable; call New.
type Registry struct {
	mu        sync.RWMutex
	endpoints map[string]*Endpoint

	// mutations counts successful index mutations by kind
	// (insert_product, delete_product, insert_preference,
	// delete_preference); mutLat holds the matching per-kind latency
	// histograms; epoch mirrors the index's mutation epoch.
	mutMu     sync.Mutex
	mutations map[string]*atomic.Int64
	mutLat    map[string]*histogram
	epoch     atomic.Uint64

	// installLagBits is the float64 bits of the epoch-install-to-publish
	// gauge: seconds between the newest epoch's install in the index and
	// its publication to this registry — the window where queries already
	// run against the new epoch but scrapes still report the old one.
	installLagBits atomic.Uint64

	// traceSource, when set, is polled at scrape time for the tracing
	// subsystem's counters (started/kept/dropped/evicted traces and slow
	// queries).
	traceMu     sync.Mutex
	traceSource func() TraceCounts

	// cacheSource, when set, is polled at scrape time for the answer
	// cache's counters and occupancy.
	cacheMu     sync.Mutex
	cacheSource func() CacheCounts

	// subSource, when set, is polled at scrape time for the continuous
	// subscription registry's counters.
	subMu     sync.Mutex
	subSource func() SubCounts

	// otlpSource, when set, is polled at scrape time for the OTLP span
	// exporter's counters (enqueued/exported/dropped/retries and queue
	// depth).
	otlpMu     sync.Mutex
	otlpSource func() OTLPCounts

	// flightSource, when set, is polled at scrape time for the flight
	// recorder's digest counters.
	flightMu     sync.Mutex
	flightSource func() FlightCounts

	// layout, when set, labels gridrank_build_info with the index's
	// physical scan layout (packed row width, kernel row block).
	layoutMu sync.Mutex
	layout   *Layout
}

// Layout describes the index's physical scan representation for the
// gridrank_build_info labels. The field meanings match the root
// package's Layout; the duplicate type keeps the import graph acyclic,
// as with TraceCounts.
type Layout struct {
	BitsPerDim int // packed bits per dimension
	RowBlock   int // rows classified per kernel call
}

// SetLayout records the index's scan layout, surfaced as labels on
// gridrank_build_info. Layout is fixed at build time, so this is set
// once at server start.
func (r *Registry) SetLayout(l Layout) {
	r.layoutMu.Lock()
	r.layout = &l
	r.layoutMu.Unlock()
}

func (r *Registry) layoutLabels() *Layout {
	r.layoutMu.Lock()
	defer r.layoutMu.Unlock()
	return r.layout
}

// TraceCounts is the tracing subsystem's counter snapshot, polled at
// scrape time through SetTraceSource. The field meanings match
// trace.Counts; the duplicate type keeps the import graph acyclic
// (internal/trace must not depend on metrics and vice versa).
type TraceCounts struct {
	Started  int64 // traces begun (sampled or recorded for the slow filter)
	Kept     int64 // traces published to the debug ring
	Dropped  int64 // recorded traces discarded as fast and unsampled
	Slow     int64 // queries over the slow-query threshold
	Evicted  int64 // published traces overwritten by newer ones
	Resident int64 // kept traces currently resident in the ring (gauge)
}

// SetTraceSource registers the tracing counter snapshot function,
// typically trace.(*Tracer).Counts. A nil source removes the trace
// metric families from the scrape.
func (r *Registry) SetTraceSource(f func() TraceCounts) {
	r.traceMu.Lock()
	r.traceSource = f
	r.traceMu.Unlock()
}

func (r *Registry) traceCounts() (TraceCounts, bool) {
	r.traceMu.Lock()
	f := r.traceSource
	r.traceMu.Unlock()
	if f == nil {
		return TraceCounts{}, false
	}
	return f(), true
}

// CacheCounts is the answer cache's counter snapshot, polled at scrape
// time through SetCacheSource. The field meanings match the root
// package's CacheStats; the duplicate type keeps the import graph
// acyclic, as with TraceCounts.
type CacheCounts struct {
	Hits           int64 // lookups answered from a resident entry
	Misses         int64 // lookups that fell through to the scan
	Stores         int64 // answers accepted into the cache
	RejectedStores int64 // stores refused as older than the head epoch
	Invalidations  int64 // entries removed or rewritten by mutation sweeps
	Flushes        int64 // whole-cache clears (batch mutations, rebuilds)
	Evictions      int64 // entries dropped by the LRU capacity bound
	Expirations    int64 // entries dropped as older than the TTL
	Entries        int64 // current resident entries (gauge)
}

// SetCacheSource registers the answer-cache counter snapshot function.
// A nil source removes the cache metric families from the scrape.
func (r *Registry) SetCacheSource(f func() CacheCounts) {
	r.cacheMu.Lock()
	r.cacheSource = f
	r.cacheMu.Unlock()
}

func (r *Registry) cacheCounts() (CacheCounts, bool) {
	r.cacheMu.Lock()
	f := r.cacheSource
	r.cacheMu.Unlock()
	if f == nil {
		return CacheCounts{}, false
	}
	return f(), true
}

// SubCounts is the continuous subscription registry's counter snapshot,
// polled at scrape time through SetSubSource. The field meanings match
// the root package's SubStats; the duplicate type keeps the import graph
// acyclic, as with TraceCounts.
type SubCounts struct {
	Monitors     int64 // currently registered subscriptions (gauge)
	Subscribed   int64 // subscriptions ever registered
	Unsubscribed int64 // subscriptions closed by their owners
	Events       int64 // enter/leave events delivered
	Lagged       int64 // subscriptions cancelled for a full buffer

	DiffPasses int64 // single-mutation epochs diffed incrementally
	FullPasses int64 // rebuild epochs recomputed per monitor
	GatedSkips int64 // monitor×epoch pairs skipped by the dominance gate

	PrefsDiffEvaluated int64 // preference vectors examined by diff passes
	PrefsDiffFullCost  int64 // what full recomputes would have examined there
}

// SetSubSource registers the subscription counter snapshot function. A
// nil source removes the subscription metric families from the scrape.
func (r *Registry) SetSubSource(f func() SubCounts) {
	r.subMu.Lock()
	r.subSource = f
	r.subMu.Unlock()
}

func (r *Registry) subCounts() (SubCounts, bool) {
	r.subMu.Lock()
	f := r.subSource
	r.subMu.Unlock()
	if f == nil {
		return SubCounts{}, false
	}
	return f(), true
}

// OTLPCounts is the OTLP span exporter's counter snapshot, polled at
// scrape time through SetOTLPSource. The field meanings match
// trace.ExporterCounts; the duplicate type keeps the import graph
// acyclic, as with TraceCounts.
type OTLPCounts struct {
	Enqueued     int64 // spans handed to the exporter
	Exported     int64 // spans delivered to the collector
	Dropped      int64 // spans discarded for a full queue or after close
	SendFailures int64 // batch posts that failed (before retries succeeded)
	Retries      int64 // batch posts retried after a failure
	Queue        int64 // spans waiting in the bounded queue (gauge)
}

// SetOTLPSource registers the OTLP exporter counter snapshot function.
// A nil source removes the exporter metric families from the scrape.
func (r *Registry) SetOTLPSource(f func() OTLPCounts) {
	r.otlpMu.Lock()
	r.otlpSource = f
	r.otlpMu.Unlock()
}

func (r *Registry) otlpCounts() (OTLPCounts, bool) {
	r.otlpMu.Lock()
	f := r.otlpSource
	r.otlpMu.Unlock()
	if f == nil {
		return OTLPCounts{}, false
	}
	return f(), true
}

// FlightCounts is the flight recorder's counter snapshot, polled at
// scrape time through SetFlightSource. The field meanings match
// flight.Counts; the duplicate type keeps the import graph acyclic, as
// with TraceCounts.
type FlightCounts struct {
	Recorded      int64 // digests ever recorded
	Queries       int64 // of which query digests
	Mutations     int64 // of which mutation/epoch-install digests
	Subscriptions int64 // of which subscription lifecycle digests
	Capacity      int64 // ring capacity in slots (gauge)
}

// SetFlightSource registers the flight recorder counter snapshot
// function. A nil source removes the flight metric families from the
// scrape.
func (r *Registry) SetFlightSource(f func() FlightCounts) {
	r.flightMu.Lock()
	r.flightSource = f
	r.flightMu.Unlock()
}

func (r *Registry) flightCounts() (FlightCounts, bool) {
	r.flightMu.Lock()
	f := r.flightSource
	r.flightMu.Unlock()
	if f == nil {
		return FlightCounts{}, false
	}
	return f(), true
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		endpoints: make(map[string]*Endpoint),
		mutations: make(map[string]*atomic.Int64),
		mutLat:    make(map[string]*histogram),
	}
}

// AddMutations records n successful index mutations of the given kind
// (rendered as gridrank_mutations_total{kind=...}).
func (r *Registry) AddMutations(kind string, n int64) {
	r.mutMu.Lock()
	c := r.mutations[kind]
	if c == nil {
		c = new(atomic.Int64)
		r.mutations[kind] = c
	}
	r.mutMu.Unlock()
	c.Add(n)
}

// ObserveMutation records the wall time of one successful index
// mutation of the given kind, rendered as the
// gridrank_mutation_duration_seconds{kind=...} histogram. Batch
// mutations observe once per call, matching the index's one-epoch-per-
// batch semantics, so derive-vs-rebuild latency regressions show up
// per kind rather than being averaged away.
func (r *Registry) ObserveMutation(kind string, d time.Duration) {
	r.mutMu.Lock()
	h := r.mutLat[kind]
	if h == nil {
		h = newHistogram()
		r.mutLat[kind] = h
	}
	r.mutMu.Unlock()
	h.observe(d.Seconds())
}

// SetEpochInstallLag publishes the delay between the newest epoch's
// install in the index and its publication to this registry (rendered
// as the gridrank_epoch_install_to_publish_seconds gauge).
func (r *Registry) SetEpochInstallLag(d time.Duration) {
	r.installLagBits.Store(math.Float64bits(d.Seconds()))
}

func (r *Registry) installLag() float64 {
	return math.Float64frombits(r.installLagBits.Load())
}

// SetIndexEpoch publishes the index's current mutation epoch (rendered
// as the gridrank_index_epoch gauge).
func (r *Registry) SetIndexEpoch(epoch uint64) { r.epoch.Store(epoch) }

// snapshotMutations copies the mutation-counter map for rendering.
func (r *Registry) snapshotMutations() map[string]int64 {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	out := make(map[string]int64, len(r.mutations))
	for kind, c := range r.mutations {
		out[kind] = c.Load()
	}
	return out
}

// snapshotMutLat returns the mutation latency histograms in sorted kind
// order. The histogram pointers are stable, so rendering reads them
// without the lock.
func (r *Registry) snapshotMutLat() (kinds []string, hists []*histogram) {
	r.mutMu.Lock()
	for kind := range r.mutLat {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		hists = append(hists, r.mutLat[kind])
	}
	r.mutMu.Unlock()
	return kinds, hists
}

// Endpoint returns the metrics bucket for name, creating it on first
// use. The returned pointer is stable and safe for concurrent use.
func (r *Registry) Endpoint(name string) *Endpoint {
	r.mu.RLock()
	e := r.endpoints[name]
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.endpoints[name]; e == nil {
		e = &Endpoint{
			name:    name,
			errors:  make(map[int]*atomic.Int64),
			latency: newHistogram(),
		}
		r.endpoints[name] = e
	}
	return e
}

// Endpoint holds the metrics of one named HTTP endpoint.
type Endpoint struct {
	name     string
	requests atomic.Int64
	inFlight atomic.Int64
	latency  *histogram

	errMu  sync.Mutex
	errors map[int]*atomic.Int64 // completed requests by status >= 400

	// filtered and refined accumulate the Grid-index work counters of
	// the endpoint's queries, so the scrape can report the live filter
	// rate (the paper's headline efficiency metric) per endpoint.
	filtered atomic.Int64
	refined  atomic.Int64
}

// Begin marks a request in flight. Observe ends it.
func (e *Endpoint) Begin() {
	e.inFlight.Add(1)
}

// Observe records one completed request begun with Begin: its wall time
// and final status code. Statuses >= 400 — including 499 (client went
// away) and 504 (deadline exceeded) — count into the error metric.
func (e *Endpoint) Observe(d time.Duration, status int) {
	e.ObserveExemplar(d, status, "")
}

// ObserveExemplar records one completed request like Observe and, when
// traceID is non-empty, additionally pins {traceID, d} as the exemplar
// of the latency bucket the request landed in. The OpenMetrics scrape
// renders it on that bucket's line, so a p99 spike on a dashboard links
// straight to a representative trace in /debug/traces.
func (e *Endpoint) ObserveExemplar(d time.Duration, status int, traceID string) {
	e.inFlight.Add(-1)
	e.requests.Add(1)
	sec := d.Seconds()
	i := e.latency.observe(sec)
	if traceID != "" {
		e.latency.exemplars[i].Store(&Exemplar{
			TraceID: traceID,
			Value:   sec,
			Unix:    float64(time.Now().UnixMilli()) / 1e3,
		})
	}
	if status >= 400 {
		e.errMu.Lock()
		c := e.errors[status]
		if c == nil {
			c = new(atomic.Int64)
			e.errors[status] = c
		}
		e.errMu.Unlock()
		c.Add(1)
	}
}

// AddFilterCounts folds one query's Grid-index work counters into the
// endpoint's filter-rate gauge. Cancelled queries contribute the work
// they performed before stopping.
func (e *Endpoint) AddFilterCounts(filtered, refined int64) {
	e.filtered.Add(filtered)
	e.refined.Add(refined)
}

// snapshotErrors copies the error-code map for rendering.
func (e *Endpoint) snapshotErrors() map[int]int64 {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	out := make(map[int]int64, len(e.errors))
	for code, c := range e.errors {
		out[code] = c.Load()
	}
	return out
}

// Exemplar links one histogram bucket to a recent trace. Value is the
// observation in seconds (by construction inside the bucket's range, as
// OpenMetrics requires); Unix is the capture time in seconds since the
// Unix epoch.
type Exemplar struct {
	TraceID string
	Value   float64
	Unix    float64
}

// histogram is a fixed-bucket latency histogram. Buckets store
// non-cumulative counts; rendering accumulates them into the cumulative
// `le` series Prometheus expects. Each bucket additionally holds the
// most recent exemplar observed into it (last-writer-wins — recency is
// exactly what a dashboard jump-to-trace wants).
type histogram struct {
	counts    []atomic.Int64             // len(LatencyBuckets)+1, last is +Inf
	sumBits   atomic.Uint64              // float64 bits of the observed sum, CAS-added
	exemplars []atomic.Pointer[Exemplar] // len(counts); nil until observed
}

func newHistogram() *histogram {
	return &histogram{
		counts:    make([]atomic.Int64, len(LatencyBuckets)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(LatencyBuckets)+1),
	}
}

// observe counts one observation and returns the index of the bucket it
// landed in, so callers can attach an exemplar to the same bucket.
func (h *histogram) observe(seconds float64) int {
	i := sort.SearchFloat64s(LatencyBuckets, seconds)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sumBits.CompareAndSwap(old, next) {
			return i
		}
	}
}

func (h *histogram) sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// WritePrometheus renders every endpoint's metrics in the classic
// Prometheus text exposition format (version 0.0.4), endpoints in
// sorted order so scrapes are stable and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.WriteExposition(w, false)
}

// WriteOpenMetrics renders the OpenMetrics 1.0 flavor of the scrape:
// counter families announced by base name, exemplars on histogram
// buckets, and the terminating # EOF marker.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.WriteExposition(w, true)
}

// WriteExposition renders the scrape in either exposition format. Both
// flavors emit the same families in the same order; the OpenMetrics one
// additionally carries exemplars and the # EOF trailer.
func (r *Registry) WriteExposition(w io.Writer, openMetrics bool) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.endpoints))
	for name := range r.endpoints {
		names = append(names, name)
	}
	eps := make([]*Endpoint, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		eps = append(eps, r.endpoints[name])
	}
	r.mu.RUnlock()

	b := &expoWriter{errWriter: errWriter{w: w}, om: openMetrics}
	b.family("gridrank_requests_total", "counter", "Completed HTTP requests by endpoint.")
	for _, e := range eps {
		b.printf("gridrank_requests_total{endpoint=%q} %d\n", e.name, e.requests.Load())
	}

	b.family("gridrank_request_errors_total", "counter", "Completed HTTP requests with status >= 400, by endpoint and status code (499 = client cancelled, 504 = deadline exceeded).")
	for _, e := range eps {
		errs := e.snapshotErrors()
		codes := make([]int, 0, len(errs))
		for code := range errs {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			b.printf("gridrank_request_errors_total{endpoint=%q,code=\"%d\"} %d\n", e.name, code, errs[code])
		}
	}

	b.family("gridrank_requests_in_flight", "gauge", "Requests currently being served, by endpoint.")
	for _, e := range eps {
		b.printf("gridrank_requests_in_flight{endpoint=%q} %d\n", e.name, e.inFlight.Load())
	}

	b.family("gridrank_request_duration_seconds", "histogram", "Wall time of completed requests, by endpoint.")
	for _, e := range eps {
		b.histogram("gridrank_request_duration_seconds", "endpoint", e.name, e.latency)
	}

	b.family("gridrank_filtered_points_total", "counter", "Points decided by Grid-index bounds alone, by endpoint.")
	for _, e := range eps {
		b.printf("gridrank_filtered_points_total{endpoint=%q} %d\n", e.name, e.filtered.Load())
	}
	b.family("gridrank_refined_points_total", "counter", "Points needing an exact score after Grid-index filtering, by endpoint.")
	for _, e := range eps {
		b.printf("gridrank_refined_points_total{endpoint=%q} %d\n", e.name, e.refined.Load())
	}
	b.family("gridrank_filter_rate", "gauge", "Fraction of examined points the Grid-index decided without a multiplication, by endpoint.")
	for _, e := range eps {
		f, rf := e.filtered.Load(), e.refined.Load()
		rate := 0.0
		if f+rf > 0 {
			rate = float64(f) / float64(f+rf)
		}
		b.printf("gridrank_filter_rate{endpoint=%q} %s\n", e.name, formatFloat(rate))
	}

	muts := r.snapshotMutations()
	kinds := make([]string, 0, len(muts))
	for kind := range muts {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	b.family("gridrank_mutations_total", "counter", "Successful index mutations by kind.")
	for _, kind := range kinds {
		b.printf("gridrank_mutations_total{kind=%q} %d\n", kind, muts[kind])
	}
	latKinds, latHists := r.snapshotMutLat()
	b.family("gridrank_mutation_duration_seconds", "histogram", "Wall time of successful index mutations, by kind (one observation per batch call).")
	for i, kind := range latKinds {
		b.histogram("gridrank_mutation_duration_seconds", "kind", kind, latHists[i])
	}
	b.family("gridrank_epoch_install_to_publish_seconds", "gauge", "Delay between the newest epoch's install in the index and its publication to the metrics registry.")
	b.printf("gridrank_epoch_install_to_publish_seconds %s\n", formatFloat(r.installLag()))
	b.family("gridrank_index_epoch", "gauge", "Current index mutation epoch (0 = as built or loaded).")
	b.printf("gridrank_index_epoch %d\n", r.epoch.Load())

	if tc, ok := r.traceCounts(); ok {
		b.family("gridrank_traces_started_total", "counter", "Query traces begun (head-sampled, remote-parented or recorded for the slow-query filter).")
		b.printf("gridrank_traces_started_total %d\n", tc.Started)
		b.family("gridrank_traces_kept_total", "counter", "Completed traces published to the debug ring.")
		b.printf("gridrank_traces_kept_total %d\n", tc.Kept)
		b.family("gridrank_traces_dropped_total", "counter", "Recorded traces discarded at completion as fast and unsampled.")
		b.printf("gridrank_traces_dropped_total %d\n", tc.Dropped)
		b.family("gridrank_traces_evicted_total", "counter", "Published traces overwritten by newer ones in the bounded ring.")
		b.printf("gridrank_traces_evicted_total %d\n", tc.Evicted)
		b.family("gridrank_traces_resident", "gauge", "Kept traces currently resident in the debug ring.")
		b.printf("gridrank_traces_resident %d\n", tc.Resident)
		b.family("gridrank_slow_queries_total", "counter", "Queries that exceeded the slow-query threshold.")
		b.printf("gridrank_slow_queries_total %d\n", tc.Slow)
	}

	if oc, ok := r.otlpCounts(); ok {
		b.family("gridrank_otlp_spans_enqueued_total", "counter", "Spans handed to the OTLP exporter.")
		b.printf("gridrank_otlp_spans_enqueued_total %d\n", oc.Enqueued)
		b.family("gridrank_otlp_spans_exported_total", "counter", "Spans delivered to the OTLP collector.")
		b.printf("gridrank_otlp_spans_exported_total %d\n", oc.Exported)
		b.family("gridrank_otlp_spans_dropped_total", "counter", "Spans discarded because the export queue was full or the exporter closed.")
		b.printf("gridrank_otlp_spans_dropped_total %d\n", oc.Dropped)
		b.family("gridrank_otlp_send_failures_total", "counter", "OTLP batch posts that failed.")
		b.printf("gridrank_otlp_send_failures_total %d\n", oc.SendFailures)
		b.family("gridrank_otlp_retries_total", "counter", "OTLP batch posts retried after a failure.")
		b.printf("gridrank_otlp_retries_total %d\n", oc.Retries)
		b.family("gridrank_otlp_queue_depth", "gauge", "Spans waiting in the bounded OTLP export queue.")
		b.printf("gridrank_otlp_queue_depth %d\n", oc.Queue)
	}

	if fc, ok := r.flightCounts(); ok {
		b.family("gridrank_flight_records_total", "counter", "Digests recorded by the always-on flight recorder.")
		b.printf("gridrank_flight_records_total %d\n", fc.Recorded)
		b.family("gridrank_flight_queries_total", "counter", "Query digests recorded by the flight recorder.")
		b.printf("gridrank_flight_queries_total %d\n", fc.Queries)
		b.family("gridrank_flight_mutations_total", "counter", "Mutation/epoch-install digests recorded by the flight recorder.")
		b.printf("gridrank_flight_mutations_total %d\n", fc.Mutations)
		b.family("gridrank_flight_subscriptions_total", "counter", "Subscription lifecycle digests recorded by the flight recorder.")
		b.printf("gridrank_flight_subscriptions_total %d\n", fc.Subscriptions)
		b.family("gridrank_flight_capacity", "gauge", "Flight recorder ring capacity in slots.")
		b.printf("gridrank_flight_capacity %d\n", fc.Capacity)
	}

	if cc, ok := r.cacheCounts(); ok {
		b.family("gridrank_cache_hits_total", "counter", "Reverse-rank queries answered from the epoch-invalidated answer cache.")
		b.printf("gridrank_cache_hits_total %d\n", cc.Hits)
		b.family("gridrank_cache_misses_total", "counter", "Cache lookups that fell through to the Grid-index scan.")
		b.printf("gridrank_cache_misses_total %d\n", cc.Misses)
		b.family("gridrank_cache_stores_total", "counter", "Scan answers accepted into the cache.")
		b.printf("gridrank_cache_stores_total %d\n", cc.Stores)
		b.family("gridrank_cache_stores_rejected_total", "counter", "Stores refused because the answer was computed against an epoch older than the cache head.")
		b.printf("gridrank_cache_stores_rejected_total %d\n", cc.RejectedStores)
		b.family("gridrank_cache_invalidated_entries_total", "counter", "Cached answers removed or rewritten by mutation invalidation sweeps.")
		b.printf("gridrank_cache_invalidated_entries_total %d\n", cc.Invalidations)
		b.family("gridrank_cache_flushes_total", "counter", "Whole-cache clears (batch mutations and index rebuilds).")
		b.printf("gridrank_cache_flushes_total %d\n", cc.Flushes)
		b.family("gridrank_cache_evictions_total", "counter", "Entries dropped by the LRU capacity bound.")
		b.printf("gridrank_cache_evictions_total %d\n", cc.Evictions)
		b.family("gridrank_cache_expired_total", "counter", "Entries dropped on contact as older than the TTL.")
		b.printf("gridrank_cache_expired_total %d\n", cc.Expirations)
		b.family("gridrank_cache_entries", "gauge", "Currently resident cached answers.")
		b.printf("gridrank_cache_entries %d\n", cc.Entries)
	}

	if sc, ok := r.subCounts(); ok {
		b.family("gridrank_sub_monitors", "gauge", "Currently registered continuous subscriptions.")
		b.printf("gridrank_sub_monitors %d\n", sc.Monitors)
		b.family("gridrank_sub_subscribed_total", "counter", "Subscriptions ever registered.")
		b.printf("gridrank_sub_subscribed_total %d\n", sc.Subscribed)
		b.family("gridrank_sub_unsubscribed_total", "counter", "Subscriptions closed by their owners.")
		b.printf("gridrank_sub_unsubscribed_total %d\n", sc.Unsubscribed)
		b.family("gridrank_sub_events_total", "counter", "Enter/leave events delivered to subscribers.")
		b.printf("gridrank_sub_events_total %d\n", sc.Events)
		b.family("gridrank_sub_lagged_total", "counter", "Subscriptions cancelled because their event buffer overflowed.")
		b.printf("gridrank_sub_lagged_total %d\n", sc.Lagged)
		b.family("gridrank_sub_diff_passes_total", "counter", "Single-mutation epochs answered by the incremental diff pass.")
		b.printf("gridrank_sub_diff_passes_total %d\n", sc.DiffPasses)
		b.family("gridrank_sub_full_passes_total", "counter", "Rebuild epochs answered by full per-monitor recomputes.")
		b.printf("gridrank_sub_full_passes_total %d\n", sc.FullPasses)
		b.family("gridrank_sub_gated_skips_total", "counter", "Monitor-epoch pairs skipped entirely by the dominance gate.")
		b.printf("gridrank_sub_gated_skips_total %d\n", sc.GatedSkips)
		b.family("gridrank_sub_prefs_diff_evaluated_total", "counter", "Preference vectors examined by diff passes.")
		b.printf("gridrank_sub_prefs_diff_evaluated_total %d\n", sc.PrefsDiffEvaluated)
		b.family("gridrank_sub_prefs_diff_full_cost_total", "counter", "Preference vectors full recomputes would have examined on diffed epochs.")
		b.printf("gridrank_sub_prefs_diff_full_cost_total %d\n", sc.PrefsDiffFullCost)
	}

	writeRuntimeTelemetry(b, r.layoutLabels())
	if openMetrics {
		b.printf("# EOF\n")
	}
	return b.err
}

// buildInfo is resolved once: the module version and Go toolchain are
// fixed for the process lifetime.
var buildInfoOnce = sync.OnceValues(func() (goVersion, modVersion string) {
	goVersion, modVersion = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		if bi.Main.Version != "" {
			modVersion = bi.Main.Version
		}
	}
	return goVersion, modVersion
})

// writeRuntimeTelemetry renders the Go runtime gauges, gathered at
// scrape time. runtime.ReadMemStats is a brief stop-the-world, which at
// scrape cadence (seconds to minutes) is noise; in exchange there is no
// background goroutine and no staleness.
func writeRuntimeTelemetry(b *expoWriter, lay *Layout) {
	goVersion, modVersion := buildInfoOnce()
	b.family("gridrank_build_info", "gauge", "Build metadata; the value is always 1.")
	if lay != nil {
		b.printf("gridrank_build_info{go_version=%q,module_version=%q,layout=\"packed\",packed_bits=\"%d\",row_block=\"%d\"} 1\n",
			goVersion, modVersion, lay.BitsPerDim, lay.RowBlock)
	} else {
		b.printf("gridrank_build_info{go_version=%q,module_version=%q} 1\n", goVersion, modVersion)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.family("gridrank_go_goroutines", "gauge", "Current number of goroutines.")
	b.printf("gridrank_go_goroutines %d\n", runtime.NumGoroutine())
	b.family("gridrank_go_gomaxprocs", "gauge", "Value of GOMAXPROCS, the query workers' CPU budget.")
	b.printf("gridrank_go_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	b.family("gridrank_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	b.printf("gridrank_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	b.family("gridrank_go_heap_inuse_bytes", "gauge", "Bytes in in-use heap spans.")
	b.printf("gridrank_go_heap_inuse_bytes %d\n", ms.HeapInuse)
	b.family("gridrank_go_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.")
	b.printf("gridrank_go_gc_pause_seconds_total %s\n", formatFloat(float64(ms.PauseTotalNs)/1e9))
}

// formatFloat renders a float the way Prometheus expects: shortest
// representation that round-trips.
func formatFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// errWriter latches the first write error so the render loop stays
// linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) printf(format string, args ...interface{}) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}

// expoWriter renders one scrape in either exposition flavor.
type expoWriter struct {
	errWriter
	om bool
}

// family announces a metric family (HELP then TYPE). In OpenMetrics
// mode, counter families are announced by their base name — the _total
// suffix belongs to the sample, not the family, per the spec.
func (b *expoWriter) family(name, typ, help string) {
	if b.om && typ == "counter" {
		name = strings.TrimSuffix(name, "_total")
	}
	b.printf("# HELP %s %s\n", name, help)
	b.printf("# TYPE %s %s\n", name, typ)
}

// exemplar renders the OpenMetrics exemplar suffix of one bucket line,
// or "" in the classic format and for buckets with no exemplar yet.
func (b *expoWriter) exemplar(ex *Exemplar) string {
	if !b.om || ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s %.3f", ex.TraceID, formatFloat(ex.Value), ex.Unix)
}

// histogram renders one labeled histogram: cumulative buckets with
// optional exemplars, +Inf last, then _sum and _count.
func (b *expoWriter) histogram(name, labelKey, labelVal string, h *histogram) {
	var cum int64
	for i, ub := range LatencyBuckets {
		cum += h.counts[i].Load()
		b.printf("%s_bucket{%s=%q,le=%q} %d%s\n",
			name, labelKey, labelVal, formatFloat(ub), cum, b.exemplar(h.exemplars[i].Load()))
	}
	cum += h.counts[len(LatencyBuckets)].Load()
	b.printf("%s_bucket{%s=%q,le=\"+Inf\"} %d%s\n",
		name, labelKey, labelVal, cum, b.exemplar(h.exemplars[len(LatencyBuckets)].Load()))
	b.printf("%s_sum{%s=%q} %s\n", name, labelKey, labelVal, formatFloat(h.sum()))
	b.printf("%s_count{%s=%q} %d\n", name, labelKey, labelVal, cum)
}
