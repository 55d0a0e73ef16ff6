package metrics

import (
	"strings"
	"testing"
	"time"

	"gridrank/internal/metrics/metricstest"
)

// This file drives the registry through every metric surface and
// validates both text exposition flavors with the strict parser in
// internal/metrics/metricstest: classic Prometheus 0.0.4 and
// OpenMetrics 1.0 (where the scrape must end with `# EOF`, counter
// families are announced by base name, and exemplars must sit on the
// bucket their observation landed in). The point is to fail here,
// in-process, rather than in a Prometheus server's scrape-error log.

// trafficRegistry drives a registry through every metric surface —
// including an endpoint name that needs label escaping and exemplar
// capture — and returns it ready to render in either format.
func trafficRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New()
	for _, name := range []string{
		"reverse_topk",
		"reverse_kranks",
		`path"with\quotes` + "\nand newline", // must escape, not corrupt the scrape
	} {
		e := r.Endpoint(name)
		e.Begin()
		e.ObserveExemplar(3*time.Millisecond, 200, "4bf92f3577b34da6a3ce929d0e0e4736")
		e.Begin()
		e.Observe(7*time.Second, 429) // lands in the +Inf bucket, no exemplar
		e.AddFilterCounts(990, 10)
	}
	r.AddMutations("insert_product", 3)
	r.ObserveMutation("insert_product", 2*time.Millisecond)
	r.ObserveMutation("insert_product", 40*time.Millisecond)
	r.ObserveMutation("delete_preference", 300*time.Microsecond)
	r.SetEpochInstallLag(150 * time.Microsecond)
	r.SetIndexEpoch(5)
	r.SetTraceSource(func() TraceCounts {
		return TraceCounts{Started: 10, Kept: 4, Dropped: 6, Slow: 1, Evicted: 2, Resident: 2}
	})
	r.SetOTLPSource(func() OTLPCounts {
		return OTLPCounts{Enqueued: 9, Exported: 7, Dropped: 1, SendFailures: 2, Retries: 2, Queue: 1}
	})
	r.SetFlightSource(func() FlightCounts {
		return FlightCounts{Recorded: 20, Queries: 15, Mutations: 4, Subscriptions: 1, Capacity: 4096}
	})
	return r
}

func scrapeWithTraffic(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	if err := trafficRegistry(t).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestExpositionFormatStrict(t *testing.T) {
	text := scrapeWithTraffic(t)
	families := metricstest.ParseExposition(t, text)

	for name, f := range families {
		// Counter families must follow the _total convention (histogram
		// component samples are exempt by construction: their family name
		// is the base).
		if f.Type == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter family %s does not end in _total", name)
		}
	}

	// The escaped endpoint label must round-trip through the parser.
	rawName := `path"with\quotes` + "\nand newline"
	found := false
	for _, s := range families["gridrank_requests_total"].Samples {
		if s.Labels["endpoint"] == rawName {
			found = true
			if s.Value != 2 {
				t.Errorf("escaped endpoint count = %g, want 2", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("escaped endpoint label did not round-trip; samples: %+v",
			families["gridrank_requests_total"].Samples)
	}

	// Histogram invariants: per endpoint, le strictly increasing,
	// cumulative counts non-decreasing, +Inf last, _count == +Inf bucket.
	hist := families["gridrank_request_duration_seconds"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatal("latency histogram family missing or mistyped")
	}
	type histState struct {
		lastLe    float64
		lastCum   float64
		infSeen   bool
		infBucket float64
		count     float64
		hasCount  bool
	}
	byEndpoint := map[string]*histState{}
	for _, s := range hist.Samples {
		ep := s.Labels["endpoint"]
		st := byEndpoint[ep]
		if st == nil {
			st = &histState{lastLe: -1}
			byEndpoint[ep] = st
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			if st.infSeen {
				t.Errorf("endpoint %q: bucket after +Inf", ep)
			}
			le, err := metricstest.ParseValue(s.Labels["le"])
			if err != nil {
				t.Fatalf("endpoint %q: bad le %q", ep, s.Labels["le"])
			}
			if le <= st.lastLe {
				t.Errorf("endpoint %q: le %g not strictly increasing after %g", ep, le, st.lastLe)
			}
			if s.Value < st.lastCum {
				t.Errorf("endpoint %q: bucket counts not cumulative: %g after %g", ep, s.Value, st.lastCum)
			}
			st.lastLe, st.lastCum = le, s.Value
			if s.Labels["le"] == "+Inf" {
				st.infSeen, st.infBucket = true, s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			st.count, st.hasCount = s.Value, true
		}
	}
	for ep, st := range byEndpoint {
		if !st.infSeen {
			t.Errorf("endpoint %q: no +Inf bucket", ep)
		}
		if !st.hasCount {
			t.Errorf("endpoint %q: no _count sample", ep)
		}
		if st.hasCount && st.infSeen && st.count != st.infBucket {
			t.Errorf("endpoint %q: _count %g != +Inf bucket %g", ep, st.count, st.infBucket)
		}
		if st.count != 2 {
			t.Errorf("endpoint %q: _count %g, want 2", ep, st.count)
		}
	}

	// Trace and runtime families must be present with sane values.
	for name, want := range map[string]float64{
		"gridrank_traces_started_total": 10,
		"gridrank_traces_kept_total":    4,
		"gridrank_traces_dropped_total": 6,
		"gridrank_traces_evicted_total": 2,
		"gridrank_slow_queries_total":   1,
	} {
		f := families[name]
		if f == nil || len(f.Samples) != 1 {
			t.Errorf("family %s missing or wrong sample count", name)
			continue
		}
		if f.Samples[0].Value != want {
			t.Errorf("%s = %g, want %g", name, f.Samples[0].Value, want)
		}
	}
	for _, name := range []string{
		"gridrank_build_info", "gridrank_go_goroutines", "gridrank_go_gomaxprocs",
		"gridrank_go_heap_alloc_bytes", "gridrank_go_heap_inuse_bytes",
		"gridrank_go_gc_pause_seconds_total",
	} {
		f := families[name]
		if f == nil || len(f.Samples) != 1 {
			t.Errorf("runtime family %s missing", name)
			continue
		}
		if f.Samples[0].Value < 0 {
			t.Errorf("%s negative: %g", name, f.Samples[0].Value)
		}
	}
	bi := families["gridrank_build_info"].Samples[0]
	if bi.Value != 1 || bi.Labels["go_version"] == "" || bi.Labels["module_version"] == "" {
		t.Errorf("build_info malformed: %+v", bi)
	}
	if families["gridrank_go_goroutines"].Samples[0].Value < 1 {
		t.Error("goroutine count below 1")
	}
}

// TestOpenMetricsFormatStrict parses the OpenMetrics flavor of the same
// traffic strictly: # EOF must terminate the scrape, counter families
// must be announced by base name with _total kept on the samples, and
// the captured exemplar must round-trip on exactly the bucket its
// observation landed in.
func TestOpenMetricsFormatStrict(t *testing.T) {
	r := trafficRegistry(t)
	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	families := metricstest.ParseOpenMetrics(t, text)

	// Counter families are announced without _total; their samples keep
	// the suffix.
	if families["gridrank_requests_total"] != nil {
		t.Error("counter family announced with _total suffix in OpenMetrics mode")
	}
	reqs := families["gridrank_requests"]
	if reqs == nil || reqs.Type != "counter" {
		t.Fatal("gridrank_requests counter family missing or mistyped")
	}
	for _, s := range reqs.Samples {
		if s.Name != "gridrank_requests_total" {
			t.Errorf("counter sample name %s, want gridrank_requests_total", s.Name)
		}
	}
	fr := families["gridrank_flight_records"]
	if fr == nil || len(fr.Samples) != 1 || fr.Samples[0].Value != 20 {
		t.Errorf("flight records family malformed: %+v", fr)
	}

	// The exemplar must sit on the bucket the 3ms observation landed in
	// (le=0.005) and nowhere else, with its value inside the bucket's
	// range and a positive timestamp.
	hist := families["gridrank_request_duration_seconds"]
	if hist == nil {
		t.Fatal("latency histogram family missing")
	}
	exemplars := 0
	for _, s := range hist.Samples {
		if s.Labels["endpoint"] != "reverse_topk" || !strings.HasSuffix(s.Name, "_bucket") {
			if s.Exemplar != nil && !strings.HasSuffix(s.Name, "_bucket") {
				t.Errorf("exemplar on non-bucket sample %s", s.Name)
			}
			continue
		}
		if s.Exemplar == nil {
			continue
		}
		exemplars++
		ex := s.Exemplar
		if s.Labels["le"] != "0.005" {
			t.Errorf("exemplar on le=%q, want le=\"0.005\"", s.Labels["le"])
		}
		if ex.Labels["trace_id"] != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("exemplar trace_id = %q", ex.Labels["trace_id"])
		}
		if ex.Value != 0.003 {
			t.Errorf("exemplar value = %g, want 0.003", ex.Value)
		}
		le, _ := metricstest.ParseValue(s.Labels["le"])
		if ex.Value > le || ex.Value <= 0.0025 {
			t.Errorf("exemplar value %g outside bucket range (0.0025, %g]", ex.Value, le)
		}
		if !ex.HasTs || ex.Ts <= 0 {
			t.Errorf("exemplar timestamp missing or non-positive: %+v", ex)
		}
	}
	if exemplars != 1 {
		t.Errorf("reverse_topk exemplar count = %d, want 1", exemplars)
	}

	// Mutation latency histograms and the new gauges must render.
	mh := families["gridrank_mutation_duration_seconds"]
	if mh == nil || mh.Type != "histogram" {
		t.Fatal("mutation duration histogram family missing")
	}
	counts := map[string]float64{}
	for _, s := range mh.Samples {
		if strings.HasSuffix(s.Name, "_count") {
			counts[s.Labels["kind"]] = s.Value
		}
	}
	if counts["insert_product"] != 2 || counts["delete_preference"] != 1 {
		t.Errorf("mutation duration counts = %v", counts)
	}
	for name, want := range map[string]float64{
		"gridrank_epoch_install_to_publish_seconds": 0.00015,
		"gridrank_traces_resident":                  2,
		"gridrank_otlp_queue_depth":                 1,
		"gridrank_flight_capacity":                  4096,
	} {
		f := families[name]
		if f == nil || len(f.Samples) != 1 {
			t.Errorf("gauge family %s missing", name)
			continue
		}
		if f.Samples[0].Value != want {
			t.Errorf("%s = %g, want %g", name, f.Samples[0].Value, want)
		}
	}

	if !strings.HasSuffix(strings.TrimRight(text, "\n"), "# EOF") {
		t.Error("scrape does not end with # EOF")
	}
}

// TestClassicScrapeHasNoExemplars pins the classic format down: the
// strict parser fails on exemplar syntax in classic mode, so a clean
// parse of the same exemplar-bearing registry proves none leaked.
func TestClassicScrapeHasNoExemplars(t *testing.T) {
	text := scrapeWithTraffic(t)
	if strings.Contains(text, " # {") {
		t.Fatal("classic scrape contains exemplar syntax")
	}
	if strings.Contains(text, "# EOF") {
		t.Fatal("classic scrape contains # EOF")
	}
}

// TestExpositionWithoutTraceSource checks the trace families vanish
// cleanly when no tracer is registered, and the scrape still parses.
func TestExpositionWithoutTraceSource(t *testing.T) {
	r := New()
	r.Endpoint("reverse_topk").Begin()
	r.Endpoint("reverse_topk").Observe(time.Millisecond, 200)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	families := metricstest.ParseExposition(t, sb.String())
	if families["gridrank_traces_started_total"] != nil {
		t.Error("trace family rendered without a source")
	}
	if families["gridrank_go_goroutines"] == nil {
		t.Error("runtime telemetry missing")
	}
}

// TestBuildInfoLayoutLine pins the gridrank_build_info sample byte for
// byte: rows are always packed, so the layout label always reads
// "packed", followed by the width and the kernel row block.
func TestBuildInfoLayoutLine(t *testing.T) {
	r := New()
	r.SetLayout(Layout{BitsPerDim: 5, RowBlock: 4})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	goVersion, modVersion := buildInfoOnce()
	want := `gridrank_build_info{go_version="` + goVersion + `",module_version="` + modVersion +
		`",layout="packed",packed_bits="5",row_block="4"} 1` + "\n"
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("scrape lacks the build_info line %q:\n%s", want, sb.String())
	}
}
