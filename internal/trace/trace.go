// Package trace is the per-query tracing subsystem: a dependency-free
// sampling tracer whose spans cover the query lifecycle — HTTP handling,
// epoch snapshot, grid scan (with the per-case work breakdown of
// Section 3.1 attached as span attributes), per-worker scan spans in the
// parallel path, heap merge and response encoding.
//
// Two sampling modes compose:
//
//   - Probabilistic: each query is recorded with probability
//     Config.SampleRate and kept unconditionally on completion.
//   - Tail-based slow-query capture: with Config.SlowQuery set, every
//     query buffers its spans and the keep/drop decision is made at
//     Finish — a query slower than the threshold is always kept (and
//     logged through Config.Logger), a fast unsampled one is discarded.
//
// A request carrying a valid W3C traceparent header reuses the remote
// trace ID and is always kept — the caller explicitly asked for the
// trace; otherwise IDs come from a process-local random generator.
//
// The disabled path is free: a nil *Trace (what Start returns when both
// modes are off, or when the probabilistic coin came up tails and no
// slow threshold is set) makes every span call a nil-receiver no-op with
// zero allocations, asserted by TestNoopPathAllocations and tracked by
// the committed BenchmarkGIRTraceOverhead numbers.
//
// Completed traces land in a bounded lock-free ring buffer (see ring.go)
// served as JSON by the server's GET /debug/traces endpoints.
package trace

import (
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit W3C trace identifier.
type TraceID struct{ Hi, Lo uint64 }

// String renders the ID as 32 lowercase hex digits (the traceparent
// form).
func (id TraceID) String() string { return fmt.Sprintf("%016x%016x", id.Hi, id.Lo) }

// IsZero reports the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// SpanID is a 64-bit W3C span identifier.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// randTraceID draws a non-zero random trace ID from the process-local
// generator (math/rand/v2's per-thread ChaCha8 streams — no lock, no
// syscall, safe for concurrent use).
func randTraceID() TraceID {
	for {
		id := TraceID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !id.IsZero() {
			return id
		}
	}
}

func randSpanID() SpanID {
	for {
		if id := SpanID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// Config tunes a Tracer.
type Config struct {
	// SampleRate is the probability an eligible query records a trace
	// that is kept unconditionally. 0 disables probabilistic sampling;
	// 1 traces everything. Values outside [0, 1] are clamped.
	SampleRate float64

	// SlowQuery, when positive, turns on tail-based capture: every query
	// records spans and those slower than the threshold are kept (and
	// logged) even when the probabilistic coin said no.
	SlowQuery time.Duration

	// Capacity bounds the completed-trace ring buffer (rounded up to a
	// power of two). 0 means DefaultCapacity.
	Capacity int

	// Logger, when set, receives one structured record per slow query,
	// carrying the trace ID and the scan's case breakdown.
	Logger *slog.Logger
}

// DefaultCapacity is the default ring-buffer size.
const DefaultCapacity = 256

// Tracer owns the sampling decision and the completed-trace storage.
// All methods are safe for concurrent use; a nil *Tracer is a valid
// always-off tracer.
type Tracer struct {
	rate   float64
	slow   time.Duration
	ring   *Ring
	logger *slog.Logger

	started atomic.Int64 // traces that began recording
	kept    atomic.Int64 // traces published to the ring
	dropped atomic.Int64 // recorded traces discarded at Finish (fast + unsampled)
	slowN   atomic.Int64 // traces over the slow-query threshold

	// exporter, when set, receives every kept trace for OTLP shipment.
	// An atomic pointer so SetExporter is safe while queries are in
	// flight; the hot path pays one atomic load when nothing is wired.
	exporter atomic.Pointer[Exporter]
}

// SetExporter wires (or, with nil, unwires) an OTLP exporter that
// receives every kept trace after it is published to the ring. Safe to
// call while queries are in flight.
func (t *Tracer) SetExporter(e *Exporter) {
	if t == nil {
		return
	}
	t.exporter.Store(e)
}

// New builds a Tracer. A tracer with SampleRate 0 and SlowQuery 0 is
// valid but never records: Start always returns nil.
func New(cfg Config) *Tracer {
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Tracer{
		rate:   cfg.SampleRate,
		slow:   cfg.SlowQuery,
		ring:   NewRing(cfg.Capacity),
		logger: cfg.Logger,
	}
}

// Enabled reports whether any sampling mode is on.
func (t *Tracer) Enabled() bool { return t != nil && (t.rate > 0 || t.slow > 0) }

// SlowThreshold returns the tail-capture threshold (0 = off).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// Start makes the head sampling decision for one query and returns its
// Trace, or nil when the query is not recorded (every span call on a nil
// Trace is a free no-op). A valid remote parent forces recording and
// keeping — the caller asked for this trace by sending a traceparent
// header — and reuses the remote trace ID.
func (t *Tracer) Start(name string, parent Parent) *Trace {
	if !t.Enabled() {
		return nil
	}
	keep := false
	switch {
	case parent.Valid:
		keep = true
	case t.rate > 0 && rand.Float64() < t.rate:
		keep = true
	case t.slow > 0:
		// Tail-based: record now, decide at Finish.
	default:
		return nil
	}
	t.started.Add(1)
	tr := &Trace{
		t:     t,
		name:  name,
		keep:  keep,
		root:  randSpanID(),
		start: time.Now(),
	}
	if parent.Valid {
		tr.id = parent.TraceID
		tr.parent = parent.SpanID
		tr.remote = true
	} else {
		tr.id = randTraceID()
	}
	return tr
}

// Traces returns the stored traces, newest first.
func (t *Tracer) Traces() []*TraceData {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// Get returns the stored trace with the given hex ID, or nil.
func (t *Tracer) Get(id string) *TraceData {
	if t == nil {
		return nil
	}
	return t.ring.Get(id)
}

// Counts is the tracer's live telemetry, scraped into /metrics.
type Counts struct {
	Started  int64 // traces that began recording
	Kept     int64 // traces published to the ring
	Dropped  int64 // recorded traces discarded at Finish
	Slow     int64 // traces over the slow-query threshold
	Evicted  int64 // stored traces overwritten by newer ones
	Resident int64 // traces currently stored in the ring
}

// Counts returns the tracer's counters, gathered at call time.
func (t *Tracer) Counts() Counts {
	if t == nil {
		return Counts{}
	}
	return Counts{
		Started:  t.started.Load(),
		Kept:     t.kept.Load(),
		Dropped:  t.dropped.Load(),
		Slow:     t.slowN.Load(),
		Evicted:  t.ring.Evicted(),
		Resident: t.ring.Resident(),
	}
}

// Attr is one span attribute. Value is an int64, float64, string or
// bool.
type Attr struct {
	Key   string
	Value any
}

// spanRecord is one completed span, buffered until Finish.
type spanRecord struct {
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
}

// Trace buffers the spans of one query until the tail sampling decision
// at Finish. It is safe for concurrent span creation (the parallel scan
// path ends worker spans from many goroutines). A nil *Trace is the
// not-recorded state: every method is a nil-receiver no-op.
type Trace struct {
	t      *Tracer
	id     TraceID
	root   SpanID
	parent SpanID // remote parent span (zero when locally rooted)
	remote bool
	keep   bool // head decision: keep regardless of duration
	name   string
	start  time.Time

	mu        sync.Mutex
	rootAttrs []Attr
	spans     []spanRecord
	finished  bool
}

// ID returns the 32-hex-digit trace ID ("" when not recording).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id.String()
}

// IDPair returns the trace ID's raw 128 bits without formatting, for
// callers (the flight recorder) that must not allocate on the query
// path. Zero/zero when not recording.
func (tr *Trace) IDPair() (hi, lo uint64) {
	if tr == nil {
		return 0, 0
	}
	return tr.id.Hi, tr.id.Lo
}

// Sampled reports whether the trace is already certain to be kept (head
// sampled or remote-requested). Tail-only traces report false until they
// turn out slow; responses only advertise a trace_id when Sampled, so a
// client never receives an ID that may not be retrievable.
func (tr *Trace) Sampled() bool { return tr != nil && tr.keep }

// Traceparent renders the W3C traceparent value identifying this trace
// and its root span, for response-header propagation.
func (tr *Trace) Traceparent() string {
	if tr == nil {
		return ""
	}
	return FormatTraceparent(tr.id, tr.root)
}

// SetAttr attaches a key/value to the trace's root span. Slow-query log
// lines carry the root attributes, so handlers put the query summary
// (endpoint, k, status, filter counts) here.
func (tr *Trace) SetAttr(key string, value any) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.rootAttrs = append(tr.rootAttrs, Attr{key, value})
	tr.mu.Unlock()
	return tr
}

// StartSpan opens a span parented to the trace root. The returned span
// is owned by the calling goroutine until End.
func (tr *Trace) StartSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, id: randSpanID(), parent: tr.root, name: name, start: time.Now()}
}

// Finish closes the trace and makes the tail sampling decision: kept
// traces are published to the ring buffer; a trace over the slow-query
// threshold is always kept and emits one structured log line carrying
// the trace ID, the root attributes and the scan span's case breakdown.
// Finish is idempotent; spans ended afterwards are discarded.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	tr.mu.Unlock()
	dur := time.Since(tr.start)
	slow := tr.t.slow > 0 && dur >= tr.t.slow
	if slow {
		tr.t.slowN.Add(1)
	}
	if !tr.keep && !slow {
		tr.t.dropped.Add(1)
		return
	}
	td := tr.export(dur, slow)
	tr.t.ring.Put(td)
	tr.t.kept.Add(1)
	if e := tr.t.exporter.Load(); e != nil {
		e.Enqueue(td) // non-blocking; drops (and counts) when the queue is full
	}
	if slow && tr.t.logger != nil {
		args := make([]any, 0, 8+2*len(tr.rootAttrs))
		args = append(args,
			"traceId", td.TraceID,
			"name", tr.name,
			"durationMs", float64(dur.Microseconds())/1e3,
		)
		for _, a := range tr.rootAttrs {
			args = append(args, a.Key, a.Value)
		}
		// The first scan span carries the per-case breakdown; surface it
		// in the log line so "why was this query slow" is answerable from
		// the log alone.
		for _, rec := range tr.spans {
			if rec.name == "scan" {
				for _, a := range rec.attrs {
					args = append(args, "scan."+a.Key, a.Value)
				}
				break
			}
		}
		tr.t.logger.Warn("slow query", args...)
	}
}

// export freezes the trace into its immutable stored form.
func (tr *Trace) export(dur time.Duration, slow bool) *TraceData {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	td := &TraceData{
		TraceID:    tr.id.String(),
		Name:       tr.name,
		Remote:     tr.remote,
		Sampled:    tr.keep,
		Slow:       slow,
		Start:      tr.start,
		DurationNs: dur.Nanoseconds(),
	}
	rootParent := ""
	if tr.remote {
		rootParent = tr.parent.String()
	}
	rest := make([]SpanData, len(tr.spans))
	for i, rec := range tr.spans {
		rest[i] = SpanData{
			SpanID:     rec.id.String(),
			ParentID:   rec.parent.String(),
			Name:       rec.name,
			OffsetNs:   rec.start.Sub(tr.start).Nanoseconds(),
			DurationNs: rec.dur.Nanoseconds(),
			Attrs:      attrMap(rec.attrs),
		}
	}
	sort.SliceStable(rest, func(a, b int) bool { return rest[a].OffsetNs < rest[b].OffsetNs })
	td.Spans = make([]SpanData, 0, len(rest)+1)
	td.Spans = append(td.Spans, SpanData{
		SpanID:     tr.root.String(),
		ParentID:   rootParent,
		Name:       tr.name,
		DurationNs: dur.Nanoseconds(),
		Attrs:      attrMap(tr.rootAttrs),
	})
	td.Spans = append(td.Spans, rest...)
	return td
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// Span is one in-flight span. A nil *Span (from a nil Trace) makes every
// method a free no-op, so instrumented code calls unconditionally.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
}

// Child opens a span parented to s (the per-worker scan spans hang off
// the scan span this way). Safe to call from any goroutine.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{tr: s.tr, id: randSpanID(), parent: s.id, name: name, start: time.Now()}
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{key, v})
	return s
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{key, v})
	return s
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{key, v})
	return s
}

// End closes the span and buffers it into the trace. Ending after the
// trace finished discards the span (the tail decision was already made).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt is End for a span whose work finished at end, earlier than now:
// attributes known only later are attached before it is recorded.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	rec := spanRecord{id: s.id, parent: s.parent, name: s.name, start: s.start, dur: end.Sub(s.start), attrs: s.attrs}
	tr := s.tr
	tr.mu.Lock()
	if !tr.finished {
		tr.spans = append(tr.spans, rec)
	}
	tr.mu.Unlock()
}

// TraceData is the immutable stored form of a completed trace, marshaled
// as-is by the /debug/traces endpoints.
type TraceData struct {
	TraceID string `json:"traceId"`
	Name    string `json:"name"`
	// Remote marks a trace whose ID came from an incoming traceparent.
	Remote bool `json:"remoteParent,omitempty"`
	// Sampled marks a head-sampled trace; false means it survived only
	// through the slow-query tail capture.
	Sampled bool `json:"sampled"`
	// Slow marks a trace over the slow-query threshold.
	Slow       bool       `json:"slow,omitempty"`
	Start      time.Time  `json:"start"`
	DurationNs int64      `json:"durationNs"`
	Spans      []SpanData `json:"spans"`
}

// SpanData is one stored span. The first span is always the root.
type SpanData struct {
	SpanID     string         `json:"spanId"`
	ParentID   string         `json:"parentId,omitempty"`
	Name       string         `json:"name"`
	OffsetNs   int64          `json:"offsetNs"`
	DurationNs int64          `json:"durationNs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}
