package trace

// OTLP/HTTP-JSON span export. The exporter ships every kept trace to an
// OpenTelemetry collector as protobuf-JSON over HTTP — hand-rolled
// against the OTLP 1.x JSON mapping (hex trace/span IDs, stringified
// int64s and unix-nano timestamps, tagged attribute values) so the
// module stays dependency-free. Design constraints, in order:
//
//  1. Never block a query. Enqueue is a non-blocking channel send; a
//     full queue (stalled or slow collector) drops the trace and
//     increments a counter instead of applying backpressure.
//  2. Batch. A background worker accumulates up to BatchSize traces or
//     FlushInterval, whichever first, per POST.
//  3. Retry with backoff. A failed POST is retried MaxRetries times
//     with doubling backoff; a batch that exhausts its retries is
//     dropped and counted.
//
// The mapping from the in-process TraceData form is documented in
// DESIGN.md §15 alongside the flight-recorder memory model.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ExporterConfig tunes an Exporter. Only Endpoint is required.
type ExporterConfig struct {
	// Endpoint is the collector base URL, e.g. "http://localhost:4318".
	// The standard OTLP traces path /v1/traces is appended unless the
	// URL already ends with it.
	Endpoint string

	// ServiceName is the resource service.name ("gridrank" by default).
	ServiceName string

	// BatchSize caps traces per POST (default 64).
	BatchSize int

	// QueueSize bounds the pending-trace queue (default 1024). When the
	// queue is full, Enqueue drops instead of blocking.
	QueueSize int

	// FlushInterval bounds how long a non-full batch waits (default 3s).
	FlushInterval time.Duration

	// Timeout bounds each POST (default 5s).
	Timeout time.Duration

	// MaxRetries is how many times a failed POST is retried (default 2;
	// total attempts = MaxRetries+1).
	MaxRetries int

	// RetryBackoff is the first retry delay, doubled per attempt
	// (default 250ms).
	RetryBackoff time.Duration

	// Client overrides the HTTP client (tests). When nil, a client with
	// Timeout is built.
	Client *http.Client
}

func (c *ExporterConfig) setDefaults() {
	if c.ServiceName == "" {
		c.ServiceName = "gridrank"
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 3 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
}

// ExporterCounts is the exporter's live telemetry.
type ExporterCounts struct {
	Enqueued     int64 // traces accepted into the queue
	Exported     int64 // traces delivered (2xx from the collector)
	Dropped      int64 // traces lost: queue full, shutdown, or retries exhausted
	SendFailures int64 // POSTs that failed (each retry that fails counts)
	Retries      int64 // retry attempts made
	Queue        int   // traces currently queued
}

// Exporter ships kept traces to an OTLP/HTTP collector. Build with
// NewExporter, wire with Tracer.SetExporter, stop with Shutdown.
type Exporter struct {
	cfg    ExporterConfig
	url    string
	client *http.Client

	ch   chan *TraceData
	stop chan struct{} // closed by Shutdown: worker drains and exits
	done chan struct{} // closed when the worker has exited

	closed       atomic.Bool
	enqueued     atomic.Int64
	exported     atomic.Int64
	dropped      atomic.Int64
	sendFailures atomic.Int64
	retries      atomic.Int64
}

// NewExporter validates cfg, starts the background worker and returns
// the exporter.
func NewExporter(cfg ExporterConfig) (*Exporter, error) {
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("trace: OTLP endpoint required")
	}
	if !strings.HasPrefix(cfg.Endpoint, "http://") && !strings.HasPrefix(cfg.Endpoint, "https://") {
		return nil, fmt.Errorf("trace: OTLP endpoint %q must be an http(s) URL", cfg.Endpoint)
	}
	cfg.setDefaults()
	url := strings.TrimSuffix(cfg.Endpoint, "/")
	if !strings.HasSuffix(url, "/v1/traces") {
		url += "/v1/traces"
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	e := &Exporter{
		cfg:    cfg,
		url:    url,
		client: client,
		ch:     make(chan *TraceData, cfg.QueueSize),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go e.run()
	return e, nil
}

// Endpoint returns the resolved collector URL (with the /v1/traces
// path).
func (e *Exporter) Endpoint() string { return e.url }

// Enqueue hands one kept trace to the exporter. Never blocks: a full
// queue or a shut-down exporter drops the trace and counts it.
func (e *Exporter) Enqueue(td *TraceData) {
	if e == nil || td == nil {
		return
	}
	if e.closed.Load() {
		e.dropped.Add(1)
		return
	}
	select {
	case e.ch <- td:
		e.enqueued.Add(1)
	default:
		e.dropped.Add(1)
	}
}

// Counts returns the exporter's counters.
func (e *Exporter) Counts() ExporterCounts {
	if e == nil {
		return ExporterCounts{}
	}
	return ExporterCounts{
		Enqueued:     e.enqueued.Load(),
		Exported:     e.exported.Load(),
		Dropped:      e.dropped.Load(),
		SendFailures: e.sendFailures.Load(),
		Retries:      e.retries.Load(),
		Queue:        len(e.ch),
	}
}

// Shutdown stops accepting traces, flushes what is queued (bounded by
// ctx) and stops the worker. Idempotent.
func (e *Exporter) Shutdown(ctx context.Context) error {
	if e == nil {
		return nil
	}
	if e.closed.CompareAndSwap(false, true) {
		close(e.stop)
	}
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the worker: batch by size or interval, flush, drain on stop.
func (e *Exporter) run() {
	defer close(e.done)
	ticker := time.NewTicker(e.cfg.FlushInterval)
	defer ticker.Stop()
	batch := make([]*TraceData, 0, e.cfg.BatchSize)
	flush := func() {
		if len(batch) > 0 {
			e.send(batch)
			batch = batch[:0]
		}
	}
	for {
		select {
		case td := <-e.ch:
			batch = append(batch, td)
			if len(batch) >= e.cfg.BatchSize {
				flush()
			}
		case <-ticker.C:
			flush()
		case <-e.stop:
			for {
				select {
				case td := <-e.ch:
					batch = append(batch, td)
					if len(batch) >= e.cfg.BatchSize {
						flush()
					}
				default:
					flush()
					return
				}
			}
		}
	}
}

// send POSTs one batch, retrying with doubling backoff. A batch that
// exhausts its retries is dropped and counted — the collector being
// down must never wedge the worker.
func (e *Exporter) send(batch []*TraceData) {
	body, err := json.Marshal(otlpPayload{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKV{strKV("service.name", e.cfg.ServiceName)}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "gridrank/internal/trace"},
			Spans: spansOf(batch),
		}},
	}}})
	if err != nil { // cannot happen with these types; belt and braces
		e.dropped.Add(int64(len(batch)))
		return
	}
	backoff := e.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		if e.post(body) {
			e.exported.Add(int64(len(batch)))
			return
		}
		e.sendFailures.Add(1)
		if attempt >= e.cfg.MaxRetries {
			e.dropped.Add(int64(len(batch)))
			return
		}
		e.retries.Add(1)
		select {
		case <-time.After(backoff):
		case <-e.stop:
			// Shutting down: one final immediate attempt each loop, no
			// sleeping out the drain window.
		}
		backoff *= 2
	}
}

func (e *Exporter) post(body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// --- OTLP/JSON wire form (protobuf JSON mapping of
// opentelemetry.proto.trace.v1) ---

type otlpPayload struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKV `json:"attributes,omitempty"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

// Span kinds from the OTLP enum; only these two appear here.
const (
	otlpKindInternal = 1
	otlpKindServer   = 2
)

type otlpSpan struct {
	TraceID       string   `json:"traceId"`
	SpanID        string   `json:"spanId"`
	ParentSpanID  string   `json:"parentSpanId,omitempty"`
	Name          string   `json:"name"`
	Kind          int      `json:"kind"`
	StartUnixNano string   `json:"startTimeUnixNano"`
	EndUnixNano   string   `json:"endTimeUnixNano"`
	Attributes    []otlpKV `json:"attributes,omitempty"`
}

type otlpKV struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

// otlpValue is the tagged AnyValue union. Int64s are strings per the
// protobuf JSON mapping.
type otlpValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"`
	DoubleValue *float64 `json:"doubleValue,omitempty"`
}

func strKV(k, v string) otlpKV { return otlpKV{Key: k, Value: otlpValue{StringValue: &v}} }

func anyKV(k string, v any) otlpKV {
	switch x := v.(type) {
	case string:
		return strKV(k, x)
	case bool:
		return otlpKV{Key: k, Value: otlpValue{BoolValue: &x}}
	case int:
		s := strconv.FormatInt(int64(x), 10)
		return otlpKV{Key: k, Value: otlpValue{IntValue: &s}}
	case int64:
		s := strconv.FormatInt(x, 10)
		return otlpKV{Key: k, Value: otlpValue{IntValue: &s}}
	case float64:
		return otlpKV{Key: k, Value: otlpValue{DoubleValue: &x}}
	default:
		return strKV(k, fmt.Sprint(v))
	}
}

func attrKVs(attrs map[string]any) []otlpKV {
	if len(attrs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic wire form
	out := make([]otlpKV, 0, len(keys))
	for _, k := range keys {
		out = append(out, anyKV(k, attrs[k]))
	}
	return out
}

// spansOf flattens a batch into OTLP spans. TraceData's first span is
// the root (SERVER kind; its ParentID is the remote parent when the
// trace was propagated in); the rest are INTERNAL, already carrying
// their in-process parent IDs.
func spansOf(batch []*TraceData) []otlpSpan {
	var out []otlpSpan
	for _, td := range batch {
		startNs := td.Start.UnixNano()
		for i, sd := range td.Spans {
			kind := otlpKindInternal
			if i == 0 {
				kind = otlpKindServer
			}
			s := startNs + sd.OffsetNs
			out = append(out, otlpSpan{
				TraceID:       td.TraceID,
				SpanID:        sd.SpanID,
				ParentSpanID:  sd.ParentID,
				Name:          sd.Name,
				Kind:          kind,
				StartUnixNano: strconv.FormatInt(s, 10),
				EndUnixNano:   strconv.FormatInt(s+sd.DurationNs, 10),
				Attributes:    attrKVs(sd.Attrs),
			})
		}
	}
	return out
}
