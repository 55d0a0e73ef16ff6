// Command rrqserver serves reverse rank queries over HTTP.
//
// Load an index saved by the library, or generate a synthetic one:
//
//	rrqserver -index catalogue.gri -addr :8080
//	rrqserver -demo -dist DIANPING -np 20000 -nw 5000 -addr :8080
//
// Endpoints (JSON): GET /healthz, GET /metrics, GET /v1/index,
// POST /v1/reverse-topk, /v1/reverse-kranks, /v1/batch, /v1/topk,
// /v1/rank, the /v1/subscriptions continuous-monitor endpoints
// (register with POST, stream enter/leave events as SSE from
// /v1/subscriptions/{id}/events), the forensic endpoints
// GET /debug/flight (flight-recorder digests) and GET /debug/bundle
// (one-shot diagnostics tar.gz, also fetchable with rrqdiag), and —
// when tracing is on — GET /debug/traces and GET /debug/traces/{id}.
//
//	curl -s localhost:8080/v1/reverse-kranks \
//	  -d '{"product": 42, "k": 10, "stats": true, "timeoutMs": 500}'
//
// Tracing: -trace-sample records that fraction of queries as span-level
// traces (responses carry a trace_id and a traceparent header);
// -slow-query additionally captures every query over the threshold and
// logs one structured "slow query" line with its Case-1/2/3 breakdown.
// Completed traces live in a bounded in-memory ring (-trace-buffer) and
// are served by the /debug/traces endpoints.
//
//	rrqserver -demo -trace-sample 0.01 -slow-query 250ms
//
// With -otlp-endpoint set, every kept trace is also exported to an
// OpenTelemetry collector as OTLP/HTTP-JSON — batched, retried with
// backoff, and dropped (with a counter) rather than ever blocking a
// query when the collector stalls:
//
//	rrqserver -demo -trace-sample 0.05 -otlp-endpoint http://localhost:4318
//
// The server shuts down gracefully: on SIGINT/SIGTERM it stops
// accepting connections, ends every live subscription stream with a
// terminal "shutdown" SSE event, lets in-flight requests drain for
// -drain, then cancels whatever is left (running queries stop within
// one preference chunk).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridrank"
	"gridrank/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		index    = flag.String("index", "", "index file saved with gridrank (see rrqgen + library Save)")
		mmap     = flag.Bool("mmap", false, "memory-map the -index file (GRI3) instead of reading it onto the heap")
		demo     = flag.Bool("demo", false, "serve a synthetic index instead of a file")
		dist     = flag.String("dist", "UN", "demo distribution (UN, CL, AC, DIANPING, ...)")
		np       = flag.Int("np", 10000, "demo products")
		nw       = flag.Int("nw", 5000, "demo preferences")
		d        = flag.Int("d", 6, "demo dimensionality")
		seed     = flag.Int64("seed", 1, "demo seed")
		par      = flag.Int("parallel", 0, "default intra-query workers per query (0 or 1 = one goroutine)")
		maxP     = flag.Int("max-parallel", 0, "cap on the per-request parallelism field (0 = GOMAXPROCS)")
		qTimeout = flag.Duration("query-timeout", 0, "default per-query deadline, e.g. 2s (0 = none; requests may override with timeoutMs)")
		maxBatch = flag.Int("max-batch", 0, "max queries per /v1/batch request (0 = default)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain period for in-flight requests")
		logFmt   = flag.String("log", "text", "request log format: text, json, or off")
		pprofA   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address, e.g. localhost:6060 (off when empty)")
		sample   = flag.Float64("trace-sample", 0, "fraction of queries traced span-by-span, 0..1 (0 = off)")
		slowQ    = flag.Duration("slow-query", 0, "capture and log every query slower than this, e.g. 250ms (0 = off)")
		traceBuf = flag.Int("trace-buffer", 0, "completed traces kept in memory, rounded up to a power of two (0 = default)")
		cacheSz  = flag.Int("cache", 0, "answer-cache capacity in entries (0 = cache off)")
		cacheTTL = flag.Duration("cache-ttl", 0, "max age of served cache entries, e.g. 30s (0 = until invalidated; requires -cache)")
		maxSubs  = flag.Int("max-subscribers", 0, "max live continuous subscriptions (0 = default, negative = unlimited)")
		evBuf    = flag.Int("event-buffer", 0, "per-subscription event buffer; a subscriber that lets it fill is cancelled as lagged (0 = default)")
		otlpEp   = flag.String("otlp-endpoint", "", "OTLP/HTTP collector base URL, e.g. http://localhost:4318; kept traces are exported there (requires -trace-sample or -slow-query)")
		otlpSvc  = flag.String("otlp-service", "", "resource service.name for exported spans (default gridrank)")
	)
	flag.Parse()
	if *sample < 0 || *sample > 1 {
		fmt.Fprintf(os.Stderr, "rrqserver: -trace-sample must be in [0, 1], got %g\n", *sample)
		os.Exit(1)
	}
	if *cacheSz < 0 || *cacheTTL < 0 || (*cacheTTL > 0 && *cacheSz == 0) {
		fmt.Fprintln(os.Stderr, "rrqserver: -cache must be >= 0, -cache-ttl >= 0 and only set with -cache")
		os.Exit(1)
	}
	if *otlpEp != "" && *sample == 0 && *slowQ == 0 {
		fmt.Fprintln(os.Stderr, "rrqserver: -otlp-endpoint exports kept traces; enable -trace-sample or -slow-query too")
		os.Exit(1)
	}
	logger, err := buildLogger(*logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrqserver:", err)
		os.Exit(1)
	}
	ix, err := buildIndex(*index, *mmap, *demo, *dist, *np, *nw, *d, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrqserver:", err)
		os.Exit(1)
	}
	if err := ix.SetParallelism(*par); err != nil {
		fmt.Fprintln(os.Stderr, "rrqserver:", err)
		os.Exit(1)
	}
	slog.Info("serving",
		"products", ix.NumProducts(),
		"preferences", ix.NumPreferences(),
		"dim", ix.Dim(),
		"gridPartitions", ix.GridPartitions(),
		"packedBits", ix.Layout().BitsPerDim,
		"format", ix.Format(),
		"resident", ix.Resident(),
		"addr", *addr,
		"queryTimeout", qTimeout.String(),
	)
	if *pprofA != "" {
		go servePprof(*pprofA)
	}
	handler := server.NewWithConfig(ix, server.Config{
		MaxParallelism:  *maxP,
		QueryTimeout:    *qTimeout,
		MaxBatch:        *maxBatch,
		Logger:          logger,
		TraceSampleRate: *sample,
		SlowQuery:       *slowQ,
		TraceBuffer:     *traceBuf,
		CacheSize:       *cacheSz,
		CacheTTL:        *cacheTTL,
		MaxSubscribers:  *maxSubs,
		EventBuffer:     *evBuf,
		OTLPEndpoint:    *otlpEp,
		OTLPServiceName: *otlpSvc,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if err := run(srv, handler, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "rrqserver:", err)
		os.Exit(1)
	}
}

// servePprof serves the net/http/pprof endpoints on their own listener,
// kept off the query port so profiling is never exposed wherever the API
// is. The handlers are registered on a private mux (not DefaultServeMux)
// and the listener dies with the process — profiling is operator
// tooling, not part of the graceful-shutdown contract.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	slog.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		slog.Error("pprof listener failed", "err", err)
	}
}

// run serves until SIGINT/SIGTERM, then drains in-flight requests for up
// to drain before forcing the remaining connections closed. Live SSE
// subscription streams are ended first (handler.Drain), so graceful
// shutdown never stalls the full drain window behind an idle stream.
func run(srv *http.Server, handler *server.Server, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err // the listener failed before any signal
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	slog.Info("shutting down", "drain", drain.String())
	handler.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// The drain window expired: close the stragglers, whose queries
		// die with their request contexts.
		srv.Close()
		return fmt.Errorf("drain expired: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	slog.Info("shutdown complete")
	return nil
}

func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -log %q (want text, json, or off)", format)
	}
}

func buildIndex(path string, mmap, demo bool, dist string, np, nw, d int, seed int64) (*gridrank.Index, error) {
	switch {
	case path != "" && demo:
		return nil, fmt.Errorf("-index and -demo are mutually exclusive")
	case path != "":
		if mmap {
			return gridrank.LoadMmap(path)
		}
		return gridrank.Load(path)
	case mmap:
		return nil, fmt.Errorf("-mmap requires -index")
	case demo:
		P, err := gridrank.GenerateProducts(seed, gridrank.Distribution(dist), np, d)
		if err != nil {
			return nil, err
		}
		wdist := gridrank.Distribution(dist)
		if wdist == gridrank.AntiCorrelated {
			wdist = gridrank.Uniform // AC preferences are not defined
		}
		W, err := gridrank.GeneratePreferences(seed+1, wdist, nw, d)
		if err != nil {
			return nil, err
		}
		return gridrank.New(P, W, nil)
	default:
		return nil, fmt.Errorf("one of -index or -demo is required")
	}
}
