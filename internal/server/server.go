// Package server exposes a gridrank index over HTTP with a small JSON
// API, turning the library into the kind of service the paper's
// applications describe (market analysis, product placement, business
// reviewing). Queries read immutable epoch snapshots and the mutation
// endpoints install new epochs atomically, so all handlers are safe
// under concurrent requests — including mutations racing queries.
//
// Endpoints:
//
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus/OpenMetrics exposition (see internal/metrics;
//	                         Accept: application/openmetrics-text gets exemplars + # EOF)
//	GET  /debug/traces       recent query traces, newest first (see internal/trace)
//	GET  /debug/traces/{id}  one stored trace with its full span tree
//	GET  /debug/flight       the flight recorder's digest ring, newest first
//	GET  /debug/bundle       one-shot diagnostics bundle (tar.gz, see internal/diag)
//	GET  /v1/index           index metadata (incl. maxParallelism, queryTimeoutMs)
//	POST /v1/reverse-topk    {"query":[...]|"product":i, "k":100, "parallelism":4, "stats":true, "timeoutMs":500}
//	POST /v1/reverse-kranks  {"query":[...]|"product":i, "k":10, "parallelism":4, "stats":true, "timeoutMs":500}
//	POST /v1/batch           {"queries":[{"type":"reverse-topk","product":3,"k":10}, ...], "parallelism":4}
//	POST /v1/topk            {"preference":[...], "k":10}
//	POST /v1/rank            {"preference":[...], "query":[...]|"product":i}
//	POST   /v1/products         insert one product or a batch (see mutate.go)
//	DELETE /v1/products/{id}    delete one product
//	DELETE /v1/products         {"ids":[...]} batch delete
//	POST   /v1/preferences      insert one preference or a batch
//	DELETE /v1/preferences/{id} delete one preference
//	DELETE /v1/preferences      {"ids":[...]} batch delete
//	POST   /v1/subscriptions             register a continuous monitor (see sub.go)
//	GET    /v1/subscriptions/{id}/events SSE stream of enter/leave events
//	DELETE /v1/subscriptions/{id}        end a subscription
//
// Request lifecycle: every query runs under the request's context, with
// a deadline from the per-request "timeoutMs" field (falling back to
// Config.QueryTimeout). A query whose deadline passes is cut off within
// one preference chunk and answered 504; a query whose client went away
// stops the same way and is recorded as 499. All requests flow through
// the metrics middleware (counts, latency histogram, filter rate — see
// GET /metrics) and, when Config.Logger is set, structured request
// logging.
//
// Tracing: with Config.TraceSampleRate or Config.SlowQuery set, the
// query endpoints record per-request traces — decode, epoch snapshot,
// grid scan (with the Case-1/2/3 breakdown), per-worker scan spans,
// merge and encode. Incoming W3C traceparent headers are honoured (the
// remote trace ID is reused and always sampled); sampled responses
// carry a "trace_id" field and a traceparent response header, and slow
// queries are logged and always captured regardless of the sampling
// coin. Completed traces are served by the /debug/traces endpoints.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"gridrank"
	"gridrank/internal/metrics"
	"gridrank/internal/trace"
)

// maxBodyBytes bounds request bodies; a query vector of a few thousand
// dimensions fits comfortably.
const maxBodyBytes = 1 << 20

// DefaultMaxBatch bounds the number of queries in one /v1/batch request.
const DefaultMaxBatch = 256

// DefaultTraceBuffer is the default capacity of the completed-trace ring
// served at /debug/traces.
const DefaultTraceBuffer = 256

// statusClientClosed is nginx's convention for "client closed request":
// the client disconnected before the answer was ready, so no status ever
// reaches it — the code exists for logs and the error metric.
const statusClientClosed = 499

// Endpoint names used for metrics labels.
const (
	epHealthz     = "healthz"
	epIndex       = "index"
	epRTK         = "reverse_topk"
	epRKR         = "reverse_kranks"
	epBatch       = "batch"
	epTopK        = "topk"
	epRank        = "rank"
	epProducts    = "products"
	epPreferences = "preferences"
	epSubs        = "subscriptions"
)

// Config tunes server behaviour beyond the index itself.
type Config struct {
	// MaxParallelism caps the per-request "parallelism" field of the
	// reverse-topk and reverse-kranks endpoints: requests asking for
	// more workers are clamped to this value, never rejected. 0 means
	// GOMAXPROCS, the number of workers beyond which a single query
	// cannot speed up anyway.
	MaxParallelism int

	// QueryTimeout is the default per-query deadline. Requests may
	// override it with a positive "timeoutMs" field. 0 means no default
	// deadline (the request context still cancels abandoned queries).
	QueryTimeout time.Duration

	// MaxBatch caps the number of queries one /v1/batch request may
	// carry. 0 means DefaultMaxBatch.
	MaxBatch int

	// Logger, when set, receives one structured record per request
	// (endpoint, method, status, duration). nil disables request
	// logging.
	Logger *slog.Logger

	// Metrics, when set, is the registry the server reports into —
	// share one across servers to aggregate. nil creates a private
	// registry, exposed at GET /metrics either way.
	Metrics *metrics.Registry

	// TraceSampleRate is the fraction of queries traced head-first, in
	// [0, 1]. 0 disables probabilistic sampling; slow-query capture and
	// remote traceparent headers still work when SlowQuery is set.
	TraceSampleRate float64

	// SlowQuery, when positive, turns on tail-based capture: every query
	// records spans, and those slower than this threshold are kept in
	// the trace ring and logged even when the sampling coin said no.
	SlowQuery time.Duration

	// TraceBuffer bounds the completed-trace ring served at
	// /debug/traces. 0 means DefaultTraceBuffer.
	TraceBuffer int

	// OTLPEndpoint, when set, exports every kept trace to an OTLP/HTTP
	// collector at this URL (e.g. "http://collector:4318"). Export
	// follows the keep decision — only sampled or slow traces leave the
	// process — so it is inert unless TraceSampleRate or SlowQuery is
	// also set. The exporter never blocks a query: a stalled collector
	// fills a bounded queue and further spans are dropped and counted
	// (gridrank_otlp_spans_dropped_total). An invalid URL makes
	// NewWithConfig panic.
	OTLPEndpoint string

	// OTLPServiceName overrides the service.name resource attribute on
	// exported spans. Empty uses the exporter's default.
	OTLPServiceName string

	// CacheSize, when positive, enables the index's answer cache with
	// room for that many cached reverse-rank answers. 0 leaves the cache
	// off (unless the caller enabled it on the index directly — the
	// server reports cache metrics either way).
	CacheSize int

	// CacheTTL bounds the age of served cache entries when CacheSize is
	// set. 0 means entries live until invalidated or evicted; a negative
	// value is invalid and makes NewWithConfig panic.
	CacheTTL time.Duration

	// MaxSubscribers bounds live continuous subscriptions; further
	// POST /v1/subscriptions requests get 429. 0 means
	// DefaultMaxSubscribers; negative means unlimited.
	MaxSubscribers int

	// EventBuffer is the per-subscription event buffer. A subscriber
	// that lets it fill is cancelled with a "lagged" terminal event. 0
	// means DefaultEventBuffer.
	EventBuffer int
}

// Server wraps an index with HTTP handlers.
type Server struct {
	ix             *gridrank.Index
	mux            *http.ServeMux
	maxParallelism int
	queryTimeout   time.Duration
	maxBatch       int
	logger         *slog.Logger
	metrics        *metrics.Registry
	tracer         *trace.Tracer
	exporter       *trace.Exporter

	// configInfo is the sanitized configuration snapshot bundled by
	// GET /debug/bundle: plain limits and rates only — the collector URL
	// (which may embed credentials) is reduced to a boolean.
	configInfo map[string]any

	// Continuous subscription state (see sub.go): the live handles by
	// id, the per-subscription event buffer, and the drain signal SSE
	// handlers select on so shutdown never stalls behind an open stream.
	subMu       sync.Mutex
	subs        map[uint64]*gridrank.Subscription
	eventBuffer int
	draining    chan struct{}
	drainOnce   sync.Once
}

// New builds a Server around an index with the default configuration.
func New(ix *gridrank.Index) *Server {
	return NewWithConfig(ix, Config{})
}

// NewWithConfig builds a Server around an index.
func NewWithConfig(ix *gridrank.Index, cfg Config) *Server {
	if cfg.MaxParallelism <= 0 {
		cfg.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.TraceBuffer <= 0 {
		cfg.TraceBuffer = DefaultTraceBuffer
	}
	tracer := trace.New(trace.Config{
		SampleRate: cfg.TraceSampleRate,
		SlowQuery:  cfg.SlowQuery,
		Capacity:   cfg.TraceBuffer,
		Logger:     cfg.Logger,
	})
	if tracer.Enabled() {
		cfg.Metrics.SetTraceSource(func() metrics.TraceCounts {
			c := tracer.Counts()
			return metrics.TraceCounts{
				Started: c.Started, Kept: c.Kept, Dropped: c.Dropped,
				Slow: c.Slow, Evicted: c.Evicted, Resident: c.Resident,
			}
		})
	}
	var exporter *trace.Exporter
	if cfg.OTLPEndpoint != "" {
		exp, err := trace.NewExporter(trace.ExporterConfig{
			Endpoint:    cfg.OTLPEndpoint,
			ServiceName: cfg.OTLPServiceName,
		})
		if err != nil {
			panic("server: invalid OTLP endpoint: " + err.Error())
		}
		tracer.SetExporter(exp)
		exporter = exp
		cfg.Metrics.SetOTLPSource(func() metrics.OTLPCounts {
			c := exp.Counts()
			return metrics.OTLPCounts{
				Enqueued: c.Enqueued, Exported: c.Exported, Dropped: c.Dropped,
				SendFailures: c.SendFailures, Retries: c.Retries, Queue: int64(c.Queue),
			}
		})
	}
	if ix.FlightEnabled() {
		cfg.Metrics.SetFlightSource(func() metrics.FlightCounts {
			c := ix.FlightCounts()
			return metrics.FlightCounts{
				Recorded: c.Recorded, Queries: c.Queries, Mutations: c.Mutations,
				Subscriptions: c.Subscriptions, Capacity: int64(c.Capacity),
			}
		})
	}
	if cfg.CacheSize > 0 {
		// EnableCache validates the config; an invalid value (e.g. a
		// negative TTL) is a programming error and fails loudly rather
		// than silently leaving the cache off.
		if err := ix.EnableCache(cfg.CacheSize, cfg.CacheTTL); err != nil {
			panic("server: invalid cache config: " + err.Error())
		}
	}
	if ix.CacheEnabled() {
		cfg.Metrics.SetCacheSource(func() metrics.CacheCounts {
			cs, ok := ix.CacheStats()
			if !ok {
				return metrics.CacheCounts{}
			}
			return metrics.CacheCounts{
				Hits: cs.Hits, Misses: cs.Misses,
				Stores: cs.Stores, RejectedStores: cs.RejectedStores,
				Invalidations: cs.Invalidations, Flushes: cs.Flushes,
				Evictions: cs.Evictions, Expirations: cs.Expirations,
				Entries: int64(cs.Entries),
			}
		})
	}
	switch {
	case cfg.MaxSubscribers == 0:
		cfg.MaxSubscribers = DefaultMaxSubscribers
	case cfg.MaxSubscribers < 0:
		cfg.MaxSubscribers = 0 // unlimited at the index layer
	}
	if err := ix.SetSubscriberLimit(cfg.MaxSubscribers); err != nil {
		panic("server: invalid subscriber limit: " + err.Error())
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = DefaultEventBuffer
	}
	cfg.Metrics.SetSubSource(func() metrics.SubCounts {
		st := ix.SubscriptionStats()
		return metrics.SubCounts{
			Monitors: st.Monitors, Subscribed: st.Subscribed,
			Unsubscribed: st.Unsubscribed, Events: st.Events, Lagged: st.Lagged,
			DiffPasses: st.DiffPasses, FullPasses: st.FullPasses,
			GatedSkips:         st.GatedSkips,
			PrefsDiffEvaluated: st.PrefsDiffEvaluated,
			PrefsDiffFullCost:  st.PrefsDiffFullCost,
		}
	})
	if tracer.Enabled() {
		ix.SetSubscriptionTracer(tracer)
	}
	// Layout is fixed at build time, so the labels are set once here.
	lay := ix.Layout()
	cfg.Metrics.SetLayout(metrics.Layout{BitsPerDim: lay.BitsPerDim, RowBlock: lay.RowBlock})
	s := &Server{
		ix:             ix,
		mux:            http.NewServeMux(),
		maxParallelism: cfg.MaxParallelism,
		queryTimeout:   cfg.QueryTimeout,
		maxBatch:       cfg.MaxBatch,
		logger:         cfg.Logger,
		metrics:        cfg.Metrics,
		tracer:         tracer,
		exporter:       exporter,
		subs:           make(map[uint64]*gridrank.Subscription),
		eventBuffer:    cfg.EventBuffer,
		draining:       make(chan struct{}),
	}
	s.configInfo = map[string]any{
		"maxParallelism":  cfg.MaxParallelism,
		"queryTimeoutMs":  cfg.QueryTimeout.Milliseconds(),
		"maxBatch":        cfg.MaxBatch,
		"cacheSize":       cfg.CacheSize,
		"cacheTTLMs":      cfg.CacheTTL.Milliseconds(),
		"maxSubscribers":  cfg.MaxSubscribers,
		"eventBuffer":     cfg.EventBuffer,
		"traceSampleRate": cfg.TraceSampleRate,
		"slowQueryMs":     cfg.SlowQuery.Milliseconds(),
		"traceBuffer":     cfg.TraceBuffer,
		"otlpConfigured":  cfg.OTLPEndpoint != "",
	}
	s.mux.HandleFunc("/healthz", s.instrument(epHealthz, s.handleHealth))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	s.mux.HandleFunc("GET /debug/bundle", s.handleBundle)
	s.mux.HandleFunc("/v1/index", s.instrument(epIndex, s.handleIndex))
	s.mux.HandleFunc("/v1/reverse-topk", s.instrument(epRTK, serveQuery(s, epRTK, ix.ReverseTopKCtx, rtkBody)))
	s.mux.HandleFunc("/v1/reverse-kranks", s.instrument(epRKR, serveQuery(s, epRKR, ix.ReverseKRanksCtx, rkrBody)))
	s.mux.HandleFunc("/v1/batch", s.instrument(epBatch, s.handleBatch))
	s.mux.HandleFunc("/v1/topk", s.instrument(epTopK, s.handleTopK))
	s.mux.HandleFunc("/v1/rank", s.instrument(epRank, s.handleRank))
	// Mutation routes (see mutate.go) use method-qualified patterns so
	// POST and DELETE on one path dispatch to distinct handlers and other
	// methods get the mux's own 405.
	s.mux.HandleFunc("POST /v1/products", s.instrument(epProducts, s.handleInsertProducts))
	s.mux.HandleFunc("DELETE /v1/products", s.instrument(epProducts, s.handleDeleteProducts))
	s.mux.HandleFunc("DELETE /v1/products/{id}", s.instrument(epProducts, s.handleDeleteProduct))
	s.mux.HandleFunc("POST /v1/preferences", s.instrument(epPreferences, s.handleInsertPreferences))
	s.mux.HandleFunc("DELETE /v1/preferences", s.instrument(epPreferences, s.handleDeletePreferences))
	s.mux.HandleFunc("DELETE /v1/preferences/{id}", s.instrument(epPreferences, s.handleDeletePreference))
	// Continuous subscription routes (see sub.go). The SSE stream is
	// instrumented too: its latency sample is the stream's lifetime.
	s.mux.HandleFunc("POST /v1/subscriptions", s.instrument(epSubs, s.handleSubscribe))
	s.mux.HandleFunc("GET /v1/subscriptions/{id}/events", s.instrument(epSubs, s.handleSubscriptionEvents))
	s.mux.HandleFunc("DELETE /v1/subscriptions/{id}", s.instrument(epSubs, s.handleUnsubscribe))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the server's registry, for sharing or testing.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// statusWriter captures the final status code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers (the
// SSE subscription stream) keep working through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the observability middleware: request
// and error counters, the latency histogram, and structured logging. A
// request whose context died before the handler wrote anything is
// recorded as 499 (client closed request). When the handler advertised a
// sampled trace (the traceparent response header set by decorateTraced),
// its trace ID becomes the exemplar of the latency bucket this request
// lands in, so an OpenMetrics scrape links latency spikes to span trees.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ep.Begin()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		d := time.Since(start)
		ep.ObserveExemplar(d, sw.status, traceIDFromHeader(sw.Header().Get("traceparent")))
		if s.logger != nil {
			s.logger.Info("request",
				"endpoint", name,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"durationMs", float64(d.Microseconds())/1e3,
				"remote", r.RemoteAddr,
			)
		}
	}
}

// queryRequest is the shared request shape: either an inline vector or a
// reference to an indexed product.
type queryRequest struct {
	Query      []float64 `json:"query,omitempty"`
	Product    *int      `json:"product,omitempty"`
	Preference []float64 `json:"preference,omitempty"`
	K          int       `json:"k"`
	// Parallelism requests intra-query workers for this query: 0 (or
	// absent) uses the index default, values above the server cap are
	// clamped to it, negative values are rejected with 400.
	Parallelism int `json:"parallelism,omitempty"`
	// Stats, when true, includes the work-statistics block in the
	// response.
	Stats bool `json:"stats,omitempty"`
	// TimeoutMs overrides the server's default query deadline for this
	// request. 0 (or absent) uses the default; negative values are
	// rejected with 400.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing more to do.
		return
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// queryErrorStatus maps a query error to its HTTP status: deadline
// overruns are 504, a client that went away is 499, anything else is a
// caller mistake.
func queryErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	default:
		return http.StatusBadRequest
	}
}

// decode parses a POST body into req, enforcing method and size limits.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req interface{}) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return false
	}
	return s.decodeBody(w, r, req)
}

// decodeBody parses a request body into req regardless of method (the
// mutation routes bind methods in their mux patterns).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, req interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
		return false
	}
	return true
}

// resolveQueryVector produces the query point from either field.
func (s *Server) resolveQueryVector(query []float64, product *int) (gridrank.Vector, error) {
	switch {
	case query != nil && product != nil:
		return nil, errors.New("provide either query or product, not both")
	case query != nil:
		return query, nil
	case product != nil:
		return s.ix.Product(*product)
	default:
		return nil, errors.New("query vector or product index required")
	}
}

// resolveParallelism validates and clamps a request's worker count.
func (s *Server) resolveParallelism(p int) (int, error) {
	if p < 0 {
		return 0, fmt.Errorf("parallelism must be non-negative, got %d", p)
	}
	if p > s.maxParallelism {
		p = s.maxParallelism
	}
	return p, nil
}

// queryContext derives the context one query (or batch) runs under: the
// request context — which already dies when the client disconnects —
// plus the deadline from timeoutMs or the server default.
func (s *Server) queryContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc, error) {
	if timeoutMs < 0 {
		return nil, nil, fmt.Errorf("timeoutMs must be non-negative, got %d", timeoutMs)
	}
	timeout := s.queryTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if timeout <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// queryOptions assembles the per-call options shared by both query
// endpoints. The stats sink is always attached: it is how the handler
// reads the query's own counts for the filter metrics, even when the
// client did not ask for them (it switches no counting on).
func queryOptions(workers int, st *gridrank.Stats) []gridrank.QueryOption {
	opts := []gridrank.QueryOption{gridrank.WithStats(st)}
	if workers > 0 {
		opts = append(opts, gridrank.WithWorkers(workers))
	}
	return opts
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if acceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = s.metrics.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// acceptsOpenMetrics reports whether the Accept header asks for the
// OpenMetrics exposition. Prometheus sends
// "application/openmetrics-text;version=1.0.0;q=...,text/plain;..."
// when exemplar scraping is enabled; a bare media type match is enough —
// anyone naming OpenMetrics explicitly wants the exemplar-bearing form.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mt) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	s.writeJSON(w, http.StatusOK, s.indexMeta())
}

// indexMeta assembles the index metadata document served by
// GET /v1/index and bundled by GET /debug/bundle.
func (s *Server) indexMeta() map[string]interface{} {
	meta := map[string]interface{}{
		"dim":             s.ix.Dim(),
		"epoch":           s.ix.Epoch(),
		"products":        s.ix.NumProducts(),
		"preferences":     s.ix.NumPreferences(),
		"pointGroups":     s.ix.PointGroups(),
		"weightGroups":    s.ix.WeightGroups(),
		"gridPartitions":  s.ix.GridPartitions(),
		"gridMemoryBytes": s.ix.GridMemoryBytes(),
		"maxParallelism":  s.maxParallelism,
		"maxBatch":        s.maxBatch,
		"queryTimeoutMs":  s.queryTimeout.Milliseconds(),
		"cacheEnabled":    s.ix.CacheEnabled(),
		"format":          s.ix.Format(),
		"resident":        s.ix.Resident(),
	}
	lay := s.ix.Layout()
	meta["layout"] = map[string]interface{}{
		"packed":     lay.Packed,
		"bitsPerDim": lay.BitsPerDim,
		"rowBlock":   lay.RowBlock,
	}
	if cs, ok := s.ix.CacheStats(); ok {
		meta["cacheSize"] = cs.Size
		meta["cacheTTLMs"] = cs.TTL.Milliseconds()
		meta["cacheEntries"] = cs.Entries
	}
	return meta
}

// queryMeta is what both single-query response bodies carry besides
// the answer.
type queryMeta struct {
	Stats *gridrank.Stats `json:"stats,omitempty"`
	// TraceID identifies this query's trace when it was head-sampled;
	// retrieve the span tree at GET /debug/traces/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
}

func (m *queryMeta) meta() *queryMeta { return m }

type rtkResponse struct {
	Preferences []int `json:"preferences"`
	Count       int   `json:"count"`
	queryMeta
}

type rkrMatch struct {
	Preference int `json:"preference"`
	Rank       int `json:"rank"`     // 0-based count of better products
	Position   int `json:"position"` // 1-based rank shown to humans
}

type rkrResponse struct {
	Matches []rkrMatch `json:"matches"`
	queryMeta
}

// rtkBody and rkrBody shape each kind's answer as its response body,
// for the single-query endpoints and /v1/batch alike.
func rtkBody(res []int) *rtkResponse {
	if res == nil {
		res = []int{}
	}
	return &rtkResponse{Preferences: res, Count: len(res)}
}

func rkrBody(res []gridrank.Match) *rkrResponse {
	matches := make([]rkrMatch, len(res))
	for i, m := range res {
		matches[i] = rkrMatch{Preference: m.WeightIndex, Rank: m.Rank, Position: m.Rank + 1}
	}
	return &rkrResponse{Matches: matches}
}

// serveQuery is the one handler body behind both single-query
// endpoints, which differ only in the index call (ask) and the response
// shape (body): decode, resolve the query vector, the parallelism and
// the deadline, ask with the stats sink attached, record the endpoint's
// filter metrics, and encode the answer with the optional stats block
// and the trace ID. ep names the endpoint for the trace and the metrics.
func serveQuery[T any, B interface{ meta() *queryMeta }](s *Server, ep string,
	ask func(context.Context, gridrank.Vector, int, ...gridrank.QueryOption) (T, error),
	body func(T) B) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.startTrace(r, ep)
		var req queryRequest
		dsp := tr.StartSpan("decode")
		ok := s.decode(w, r, &req)
		dsp.End()
		if !ok {
			finishQueryTrace(tr, nil, errors.New("bad request"))
			return
		}
		tr.SetAttr("k", req.K)
		q, err := s.resolveQueryVector(req.Query, req.Product)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			finishQueryTrace(tr, nil, err)
			return
		}
		workers, err := s.resolveParallelism(req.Parallelism)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			finishQueryTrace(tr, nil, err)
			return
		}
		ctx, cancel, err := s.queryContext(r, req.TimeoutMs)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			finishQueryTrace(tr, nil, err)
			return
		}
		defer cancel()
		var st gridrank.Stats
		res, err := ask(ctx, q, req.K, traceQueryOption(queryOptions(workers, &st), tr)...)
		s.metrics.Endpoint(ep).AddFilterCounts(st.Filtered, st.Refined)
		if err != nil {
			s.writeError(w, queryErrorStatus(err), err)
			finishQueryTrace(tr, &st, err)
			return
		}
		resp := body(res)
		m := resp.meta()
		m.TraceID = decorateTraced(w, tr)
		if req.Stats {
			m.Stats = &st
		}
		esp := tr.StartSpan("encode")
		s.writeJSON(w, http.StatusOK, resp)
		esp.End()
		finishQueryTrace(tr, &st, nil)
	}
}

// batchItem is one query of a /v1/batch request.
type batchItem struct {
	Type    string    `json:"type"` // "reverse-topk" or "reverse-kranks"
	Query   []float64 `json:"query,omitempty"`
	Product *int      `json:"product,omitempty"`
	K       int       `json:"k"`
}

type batchRequest struct {
	Queries []batchItem `json:"queries"`
	// Parallelism is the worker count the batch fans out across (the
	// inter-query pool of the library's batch API), validated and
	// clamped like the single-query field.
	Parallelism int `json:"parallelism,omitempty"`
	TimeoutMs   int `json:"timeoutMs,omitempty"`
}

// batchItemResult is one query's outcome, in input order. Exactly one of
// the three fields is set.
type batchItemResult struct {
	ReverseTopK   *rtkResponse `json:"reverseTopk,omitempty"`
	ReverseKRanks *rkrResponse `json:"reverseKranks,omitempty"`
	Error         string       `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchItemResult `json:"results"`
	// TraceID identifies the batch's trace when it was head-sampled. All
	// queries of the batch land their spans on this one trace.
	TraceID string `json:"trace_id,omitempty"`
}

// handleBatch fans a list of mixed reverse-topk / reverse-kranks queries
// through the library's batch machinery: items are grouped by (type, k),
// each group runs as one concurrent batch, and the answers are scattered
// back into input order. One bad item fails only itself; an expired or
// cancelled batch context fails the whole request (504 / 499).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tr := s.startTrace(r, epBatch)
	var req batchRequest
	dsp := tr.StartSpan("decode")
	ok := s.decode(w, r, &req)
	dsp.End()
	if !ok {
		finishQueryTrace(tr, nil, errors.New("bad request"))
		return
	}
	tr.SetAttr("queries", len(req.Queries))
	if len(req.Queries) == 0 {
		err := errors.New("queries must be a non-empty array")
		s.writeError(w, http.StatusBadRequest, err)
		finishQueryTrace(tr, nil, err)
		return
	}
	if len(req.Queries) > s.maxBatch {
		err := fmt.Errorf("batch of %d queries exceeds the limit of %d", len(req.Queries), s.maxBatch)
		s.writeError(w, http.StatusBadRequest, err)
		finishQueryTrace(tr, nil, err)
		return
	}
	workers, err := s.resolveParallelism(req.Parallelism)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		finishQueryTrace(tr, nil, err)
		return
	}
	ctx, cancel, err := s.queryContext(r, req.TimeoutMs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		finishQueryTrace(tr, nil, err)
		return
	}
	defer cancel()

	results := make([]batchItemResult, len(req.Queries))
	type group struct {
		indices []int             // positions in req.Queries
		vectors []gridrank.Vector // resolved query points
	}
	groups := make(map[string]*group) // key: type + k
	for i, item := range req.Queries {
		if item.Type != "reverse-topk" && item.Type != "reverse-kranks" {
			results[i] = batchItemResult{Error: fmt.Sprintf("unknown type %q (want reverse-topk or reverse-kranks)", item.Type)}
			continue
		}
		q, err := s.resolveQueryVector(item.Query, item.Product)
		if err != nil {
			results[i] = batchItemResult{Error: err.Error()}
			continue
		}
		key := fmt.Sprintf("%s/%d", item.Type, item.K)
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
		}
		g.indices = append(g.indices, i)
		g.vectors = append(g.vectors, q)
	}
	for _, g := range groups {
		// Every item of a group shares its type and k by construction.
		item := req.Queries[g.indices[0]]
		k := item.K
		switch item.Type {
		case "reverse-topk":
			batch := s.ix.ReverseTopKBatchCtx(ctx, g.vectors, k, workers, traceQueryOption(nil, tr)...)
			for j, br := range batch {
				i := g.indices[j]
				if br.Err != nil {
					results[i] = batchItemResult{Error: br.Err.Error()}
					continue
				}
				results[i] = batchItemResult{ReverseTopK: rtkBody(br.Value)}
			}
		case "reverse-kranks":
			batch := s.ix.ReverseKRanksBatchCtx(ctx, g.vectors, k, workers, traceQueryOption(nil, tr)...)
			for j, br := range batch {
				i := g.indices[j]
				if br.Err != nil {
					results[i] = batchItemResult{Error: br.Err.Error()}
					continue
				}
				results[i] = batchItemResult{ReverseKRanks: rkrBody(br.Value)}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		s.writeError(w, queryErrorStatus(err), err)
		finishQueryTrace(tr, nil, err)
		return
	}
	esp := tr.StartSpan("encode")
	s.writeJSON(w, http.StatusOK, batchResponse{Results: results, TraceID: decorateTraced(w, tr)})
	esp.End()
	finishQueryTrace(tr, nil, nil)
}

type topkResponse struct {
	Products []gridrank.Result `json:"products"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Preference == nil {
		s.writeError(w, http.StatusBadRequest, errors.New("preference vector required"))
		return
	}
	res, err := s.ix.TopK(req.Preference, req.K)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, topkResponse{Products: res})
}

type rankResponse struct {
	Rank     int `json:"rank"`
	Position int `json:"position"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Preference == nil {
		s.writeError(w, http.StatusBadRequest, errors.New("preference vector required"))
		return
	}
	q, err := s.resolveQueryVector(req.Query, req.Product)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	rank, err := s.ix.Rank(req.Preference, q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rankResponse{Rank: rank, Position: rank + 1})
}
