package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The server-level acceptance path for the answer cache: enabling it
// through Config, observing hits and invalidations in the /metrics
// exposition, cache.lookup spans in /debug/traces, and the cache block
// of /v1/index — with answers identical before and after mutations.

func getMetricsBody(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

// TestCacheEndToEnd drives a cache-enabled traced server through a
// repeat query (hit), a mutation (invalidation sweep) and a re-query,
// checking the counters, the spans and the metadata along the way.
func TestCacheEndToEnd(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1, CacheSize: 64, CacheTTL: time.Minute})

	query := map[string]interface{}{"product": 3, "k": 100}
	first := postTraceparent(t, s, "/v1/reverse-topk", "", query)
	if first.Code != http.StatusOK {
		t.Fatalf("first query: %d %s", first.Code, first.Body.String())
	}
	second := postTraceparent(t, s, "/v1/reverse-topk", "", query)
	if second.Code != http.StatusOK {
		t.Fatalf("second query: %d %s", second.Code, second.Body.String())
	}
	var res1, res2 struct {
		Preferences []int  `json:"preferences"`
		Count       int    `json:"count"`
		TraceID     string `json:"trace_id"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &res1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &res2); err != nil {
		t.Fatal(err)
	}
	if res1.Count == 0 {
		t.Fatalf("degenerate fixture: first query returned no preferences: %s", first.Body.String())
	}
	if len(res1.Preferences) != len(res2.Preferences) {
		t.Fatalf("cache changed the answer: %v vs %v", res1.Preferences, res2.Preferences)
	}
	for i := range res1.Preferences {
		if res1.Preferences[i] != res2.Preferences[i] {
			t.Fatalf("cache changed the answer: %v vs %v", res1.Preferences, res2.Preferences)
		}
	}

	// The second query's trace must carry a cache.lookup span marked as a
	// hit, and no scan span (the cache answered).
	td := getTrace(t, s, res2.TraceID, http.StatusOK)
	spans := spanNames(td)
	lookup, ok := spans["cache.lookup"]
	if !ok {
		t.Fatalf("no cache.lookup span in hit trace: %v", td.Spans)
	}
	if hit, _ := lookup.Attrs["hit"].(float64); hit != 1 {
		t.Fatalf("cache.lookup attrs = %v, want hit=1", lookup.Attrs)
	}
	if _, scanned := spans["scan"]; scanned {
		t.Fatal("hit trace still contains a scan span")
	}
	// The first query's trace records the miss and the store.
	td1 := getTrace(t, s, res1.TraceID, http.StatusOK)
	spans1 := spanNames(td1)
	if lk, ok := spans1["cache.lookup"]; !ok {
		t.Fatalf("no cache.lookup span in miss trace: %v", td1.Spans)
	} else if hit, _ := lk.Attrs["hit"].(float64); hit != 0 {
		t.Fatalf("miss trace cache.lookup attrs = %v, want hit=0", lk.Attrs)
	}
	if _, ok := spans1["cache.store"]; !ok {
		t.Fatalf("no cache.store span in miss trace: %v", td1.Spans)
	}

	// The scrape exposes the cache counter families with the hit counted.
	body := getMetricsBody(t, s)
	for _, want := range []string{
		"gridrank_cache_hits_total 1",
		"gridrank_cache_misses_total",
		"gridrank_cache_stores_total",
		"gridrank_cache_entries",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, body)
		}
	}

	// A product delete sweeps the cache; the re-query is correct against
	// the new epoch and the invalidation counter moves.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/products/0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE /v1/products/0: %d %s", rec.Code, rec.Body.String())
	}
	third := postTraceparent(t, s, "/v1/reverse-topk", "", query)
	if third.Code != http.StatusOK {
		t.Fatalf("post-mutation query: %d %s", third.Code, third.Body.String())
	}
	body = getMetricsBody(t, s)
	const dropHelp = "# HELP gridrank_cache_invalidated_entries_total Cached answers dropped by mutation invalidation sweeps.\n"
	if !strings.Contains(body, dropHelp) {
		t.Errorf("missing invalidation counter help %q in /metrics:\n%s", dropHelp, body)
	}

	// /v1/index reports the cache block.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/index", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/index: %d", rec.Code)
	}
	var meta struct {
		CacheEnabled bool  `json:"cacheEnabled"`
		CacheSize    int   `json:"cacheSize"`
		CacheTTLMs   int64 `json:"cacheTTLMs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if !meta.CacheEnabled || meta.CacheSize != 64 || meta.CacheTTLMs != time.Minute.Milliseconds() {
		t.Fatalf("/v1/index cache block = %+v", meta)
	}
}

// TestCacheDisabledMetricsAbsent pins that a server without a cache
// exposes no cache metric families and reports cacheEnabled=false.
func TestCacheDisabledMetricsAbsent(t *testing.T) {
	s := tracedServer(t, Config{})
	if strings.Contains(getMetricsBody(t, s), "gridrank_cache_") {
		t.Fatal("cache metric families present without a cache")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/index", nil))
	var meta struct {
		CacheEnabled bool `json:"cacheEnabled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.CacheEnabled {
		t.Fatal("/v1/index reports cacheEnabled on a cache-less server")
	}
}

// TestNegativeCacheTTLFailsLoudly pins that NewWithConfig rejects an
// invalid cache config instead of silently leaving the cache off.
func TestNegativeCacheTTLFailsLoudly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWithConfig accepted CacheTTL < 0 without complaint")
		}
	}()
	tracedServer(t, Config{CacheSize: 8, CacheTTL: -time.Second})
}
