// Command perfbench is gridrank's end-to-end benchmark. It builds or opens
// the index in process, serves it with internal/server on a loopback
// listener and drives a seeded script of HTTP requests over one
// keep-alive connection in a closed loop, checking every answer. With
// -trace 1 it instead times each layer from outside the program — client
// round trips, a wrapper around the server's ServeHTTP and the library's
// flight-recorder digests — and prints a per-layer table.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload scan|hot|churn --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh compare DIR_A DIR_B
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md for the
// workloads and the definition of every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"gridrank"
	"gridrank/internal/server"
)

// The catalog and server configuration every workload shares.
const (
	numProducts   = 4000
	numPrefs      = 1000
	dim           = 6 // the DIANPING simulator's dimensionality
	queryK        = 10
	cacheCapacity = 1024
	batchItems    = 32
	batchWorkers  = 2
	// setupRounds fresh set-ups are timed per run; setup_s is their median.
	setupRounds = 101
	// datasetSeed fixes the catalog and the hot sets, the benchmark's data
	// set. The run's seed drives the traffic: fresh query vectors, draws
	// from the hot sets, their order, mutation vectors and ids, and the
	// brute-forced sample. With a few hot vectors, which ones are hot
	// would otherwise decide hot-path costs more than the program does.
	datasetSeed = 1
	// numMonitors reverse top-k monitors are registered with
	// Index.Subscribe on every workload and drained after every mutation.
	// A rebuilt epoch recomputes each, so a rebuilding mutation takes
	// ~15 ms rather than ~1.5 ms: long enough that a stall of the host
	// (CPU steal of a few ms) stretches it by a share, as it does the
	// other timings, instead of multiplying its tail.
	numMonitors = 8
	// eventBuffer is the monitors' event buffer: larger than the events
	// one rebuild can produce for a k = 10 reverse top-k monitor here, so
	// draining after every mutation never lets a monitor lag.
	eventBuffer = 4096
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: scan, hot or churn")
	seed := fs.Int64("seed", 1, "seed of the catalog and the request script")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 times each layer instead of measuring end to end")
	results := fs.String("results", ".bench_results", "directory receiving one JSON result file per run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload scan|hot|churn, -seconds > 0 and -trace 0|1")
		return 2
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout)
	if err := res.save(*results); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
	Layers    []layerRow        `json:"layers,omitempty"`
	Counts    *exactCounts      `json:"exact_counts,omitempty"`
	Overhead  *overhead         `json:"tracing_overhead,omitempty"`
	Script    scriptInfo        `json:"script"`
	Env       envInfo           `json:"env"`
}

type scriptInfo struct {
	CountOps int    `json:"count_ops"`
	SHA256   string `json:"sha256"`
	Ops      int    `json:"ops_run"`
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, b2i(r.Trace), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// served is one running server over one index.
type served struct {
	ix    *gridrank.Index
	hs    *http.Server
	addr  string
	done  chan struct{}
	conns atomic.Int64
	open  time.Duration // the index open call: New or LoadMmap
	setup time.Duration // inputs in memory to the first 200 from /healthz
}

// serve opens the index, builds the server and waits for its first
// healthy response.
func serve(w workload, P, W [][]float64, path string, wrap func(http.Handler) http.Handler) (*served, error) {
	start := time.Now()
	var ix *gridrank.Index
	var err error
	if w.mmap {
		ix, err = gridrank.LoadMmap(path)
	} else {
		ix, err = gridrank.New(P, W, nil)
	}
	open := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("opening the index: %w", err)
	}
	var h http.Handler = server.NewWithConfig(ix, server.Config{CacheSize: cacheCapacity})
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ix.Close()
		return nil, err
	}
	s := &served{ix: ix, addr: ln.Addr().String(), done: make(chan struct{}), open: open}
	s.hs = &http.Server{Handler: h, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.conns.Add(1)
		}
	}}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	c := newClient(s.addr)
	r, err := c.do("GET", "/healthz", nil)
	c.close()
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("healthz answered %d", r.status)
	}
	s.setup = time.Since(start)
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *served) stop() {
	_ = s.hs.Close() // closes the listener and every connection
	<-s.done
	_ = s.ix.Close() // a heap index has nothing to release
}

// latencies collects client round trips per request class.
type latencies struct {
	rtk, rkr, batch, mutation []sample
}

// sample is one round trip in ms and the steal window it started in.
type sample struct {
	win int
	ms  float64
}

// kept is the round trips of ss that started in a kept window.
func kept(ss []sample, keep []bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep[s.win] {
			out = append(out, s.ms)
		}
	}
	return out
}

func run(w workload, seed int64, budget time.Duration, traced bool, resultsDir string) (*result, error) {
	env := startEnv()
	P, err := gridrank.GenerateProducts(subSeed(datasetSeed, "catalog/products"), gridrank.Dianping, numProducts, dim)
	if err != nil {
		return nil, err
	}
	W, err := gridrank.GeneratePreferences(subSeed(datasetSeed, "catalog/preferences"), gridrank.Dianping, numPrefs, dim)
	if err != nil {
		return nil, err
	}

	// Untimed preparation: hot serves a GRI3 file, as a restarted
	// rrqserver -index f -mmap does.
	var path string
	if w.mmap {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(".bench_build", "perfbench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "catalog.gri")
		ix, err := gridrank.New(P, W, nil)
		if err != nil {
			return nil, err
		}
		if err := ix.Save(path); err != nil {
			return nil, err
		}
	}

	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if traced {
		tr = &tracer{}
		wrap = tr.wrap
	}
	var setups, opens []float64
	var srv *served
	for r := 0; r < setupRounds; r++ {
		// Each round starts on a collected heap, as a fresh process does;
		// the earlier rounds' garbage would otherwise set the collector
		// running inside the timed set-up.
		runtime.GC()
		s, err := serve(w, P, W, path, wrap)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		opens = append(opens, float64(s.open)/1e6)
		if r < setupRounds-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	scr := newScript(w, seed, P, W)
	d := &runner{nP: numProducts, nW: numPrefs, epoch: srv.ix.Epoch(), failed: map[int]string{}, last: map[[2]int]seen{}}
	for _, q := range monitorQueries() {
		sub, err := srv.ix.Subscribe(q, queryK, gridrank.SubReverseTopK, eventBuffer)
		if err != nil {
			return nil, fmt.Errorf("subscribing: %w", err)
		}
		defer sub.Close()
		d.mons = append(d.mons, newMonitor(sub, q))
	}

	// The warm-up request opens the one connection the whole run uses.
	srv.conns.Store(0)
	c := newClient(srv.addr)
	defer c.close()
	if r, err := c.do("GET", "/v1/index", nil); err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("warm-up request failed: %d %v", r.status, err)
	}
	if tr != nil {
		tr.start(srv.ix)
	}

	cacheStart, _ := srv.ix.CacheStats()
	subStart := srv.ix.SubscriptionStats()
	var counts exactCounts
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	win := newWindows(t0)
	n := 0
	for ; n < w.countOps || time.Since(t0) < budget; n++ {
		d.win = win.tick(time.Now())
		o := scr.next()
		method, p, body := request(o)
		if tr != nil {
			tr.begin()
		}
		r, err := c.do(method, p, body)
		if tr != nil {
			tr.end(o, r.start, r.end)
		}
		if err == nil && r.status/100 != 2 {
			err = fmt.Errorf("status %d: %s", r.status, r.body)
		}
		if err == nil {
			answers := d.answers
			err = d.record(n, o, r.body, r.ms())
			win.w[d.win].answers += d.answers - answers
		}
		if err != nil {
			d.failed[n] = fmt.Sprintf("%s: %v", opNames[o.kind], err)
		}
		if n+1 == w.countOps {
			cs, _ := srv.ix.CacheStats()
			counts = countsOver(cacheStart, cs, subStart, srv.ix.SubscriptionStats(), d.mutations)
		}
	}
	elapsed := time.Since(t0)
	win.close(t0.Add(elapsed))
	runtime.ReadMemStats(&ms1)
	if c := srv.conns.Load(); c != 1 {
		return nil, fmt.Errorf("the timed phase used %d connections, want 1", c)
	}
	var layers *layerReport
	if tr != nil {
		if layers, err = tr.finish(w, counts); err != nil {
			return nil, err
		}
	}

	// Correctness, outside the timed region.
	res := &result{Workload: w.name, Seed: seed, Trace: traced, Metrics: map[string]metric{}}
	wrong, final := replay(w, seed, P, W, n, d.samples)
	for i, msg := range wrong {
		if _, ok := d.failed[i]; !ok {
			d.failed[i] = msg
		}
	}
	for i, msg := range d.failed {
		res.Failures = append(res.Failures, fmt.Sprintf("op %d: %s", i, msg))
	}
	for _, m := range d.mons {
		if err := m.check(final); err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
	}
	sort.Strings(res.Failures)
	res.Attempted = n + len(d.mons)
	res.Failed = len(res.Failures)
	res.Correct = res.Failed == 0
	res.Script = scriptInfo{CountOps: w.countOps, SHA256: scriptDigest(w, seed, P, W, w.countOps), Ops: n}
	res.Env = env.finish(elapsed)
	keep := win.kept()
	res.Env.Windows = len(win.w)
	for i, k := range keep {
		if k {
			res.Env.WindowsKept++
			res.Env.KeptStealMS += float64(win.w[i].steal) * 10
		}
	}
	rtk, rkr, batch, mutation := kept(d.lat.rtk, keep), kept(d.lat.rkr, keep), kept(d.lat.batch, keep), kept(d.lat.mutation, keep)
	res.Samples = map[string]int{
		"rtk": len(rtk), "rkr": len(rkr), "batch": len(batch), "mutation": len(mutation),
		"brute_force_checks": len(d.samples), "monitor_events": monitorEvents(d.mons),
	}

	aps := win.answersPerSecond(keep)
	if traced {
		res.Layers = layers.rows
		res.Counts = &counts
		res.Metrics = layers.metrics
		res.Metrics["alloc_kb_per_op"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(n), "KB"}
		res.Metrics["gc.cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
		res.Metrics["gc.pause_ms"] = metric{float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6, "ms"}
		res.Metrics["persist.open_ms"] = metric{median(opens), "ms"}
		res.Metrics["traced.answers_per_s"] = metric{aps, "1/s"}
		res.Overhead = findOverhead(resultsDir, w.name, seed, aps)
		return res, nil
	}
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"answers_per_s":   {aps, "1/s"},
		"rtk.p50_ms":      {percentile(rtk, 50), "ms"},
		"rtk.p99_ms":      {percentile(rtk, 99), "ms"},
		"rkr.p50_ms":      {percentile(rkr, 50), "ms"},
		"rkr.p90_ms":      {percentile(rkr, 90), "ms"},
		"batch.p50_ms":    {percentile(batch, 50), "ms"},
		"mutation.p50_ms": {percentile(mutation, 50), "ms"},
		"mutation.p95_ms": {percentile(mutation, 95), "ms"},
		"success_ratio":   {float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
	return res, nil
}

// runner is the client side of a run: the catalog sizes and epoch the
// responses must show, the monitors, and what the run records.
type runner struct {
	nP, nW    int
	epoch     uint64
	mons      []*monitor
	mutations int
	answers   int
	lat       latencies
	win       int            // the steal window the current request started in
	failed    map[int]string // op index → first failure
	samples   []sampled
	// last holds the previous answer per hot query and the mutation count
	// it was served at: a repeat with no mutation in between must match.
	last map[[2]int]seen
	prev answer // the last answer, which a re-asked query must repeat
}

type seen struct {
	mutations int
	a         answer
}

// record checks the 2xx response of op n and records its latency.
func (d *runner) record(n int, o op, resp []byte, ms float64) error {
	switch o.kind {
	case opRTK, opRKR:
		var a answer
		var err error
		if o.kind == opRTK {
			d.lat.rtk = append(d.lat.rtk, sample{d.win, ms})
			var wire rtkWire
			if err = json.Unmarshal(resp, &wire); err == nil {
				a, err = rtkAnswer(&wire, d.nW)
			}
		} else {
			d.lat.rkr = append(d.lat.rkr, sample{d.win, ms})
			var wire rkrWire
			if err = json.Unmarshal(resp, &wire); err == nil {
				a, err = rkrAnswer(&wire, d.nW)
			}
		}
		if err != nil {
			return err
		}
		d.answers++
		return d.answered(n, 0, o.query, a)
	case opBatch:
		d.lat.batch = append(d.lat.batch, sample{d.win, ms})
		var wire batchWire
		if err := json.Unmarshal(resp, &wire); err != nil {
			return err
		}
		if len(wire.Results) != len(o.items) {
			return fmt.Errorf("%d results for %d queries", len(wire.Results), len(o.items))
		}
		for j, it := range o.items {
			r := wire.Results[j]
			var a answer
			var err error
			switch {
			case r.Error != "":
				err = errors.New(r.Error)
			case it.kind == opRTK:
				a, err = rtkAnswer(r.ReverseTopK, d.nW)
			default:
				a, err = rkrAnswer(r.ReverseKRanks, d.nW)
			}
			if err == nil {
				err = d.answered(n, j, it, a)
			}
			if err != nil {
				return fmt.Errorf("item %d: %w", j, err)
			}
		}
		d.answers += len(o.items)
		return nil
	}
	d.mutations++
	d.lat.mutation = append(d.lat.mutation, sample{d.win, ms})
	if err := d.mutated(o, resp); err != nil {
		return err
	}
	delPref := -1
	if o.kind == opDelPref {
		delPref = o.ids[0]
	}
	for _, m := range d.mons {
		if err := m.drain(d.epoch, delPref); err != nil {
			return err
		}
	}
	return nil
}

// answered keeps a sampled answer for the brute-force replay and checks a
// hot query's answer against its previous one.
func (d *runner) answered(n, item int, q query, a answer) error {
	if q.check {
		d.samples = append(d.samples, sampled{op: n, item: item, got: a})
	}
	if q.reask && !d.prev.equal(a) {
		return fmt.Errorf("re-asked query answered %v, first %v", a.prefs, d.prev.prefs)
	}
	d.prev = a
	if q.hot < 0 {
		return nil
	}
	key := [2]int{int(q.kind), q.hot}
	prev, ok := d.last[key]
	d.last[key] = seen{d.mutations, a}
	if ok && prev.mutations == d.mutations && !prev.a.equal(a) {
		return fmt.Errorf("hot query %d changed without a mutation", q.hot)
	}
	return nil
}

func monitorEvents(mons []*monitor) int {
	n := 0
	for _, m := range mons {
		n += m.events
	}
	return n
}

// mutated checks a mutation response against the model's sizes and the
// epoch sequence, advancing both.
func (d *runner) mutated(o op, resp []byte) error {
	var wire mutationWire
	if err := json.Unmarshal(resp, &wire); err != nil {
		return err
	}
	total := &d.nP
	if o.kind == opInsPref || o.kind == opDelPref {
		total = &d.nW
	}
	switch o.kind {
	case opInsProduct, opInsPref:
		if wire.FirstID != *total {
			return fmt.Errorf("inserted id %d, want %d", wire.FirstID, *total)
		}
		*total++
	default:
		*total -= len(o.ids)
	}
	if wire.Total != *total {
		return fmt.Errorf("total %d, want %d", wire.Total, *total)
	}
	if wire.Epoch != d.epoch+1 {
		return fmt.Errorf("epoch %d after epoch %d", wire.Epoch, d.epoch)
	}
	d.epoch = wire.Epoch
	return nil
}

// exactCounts are the program's own counts over the script prefix; they
// repeat exactly for one seed.
type exactCounts struct {
	Mutations         int     `json:"mutations"`
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheDrops        int64   `json:"cache_drops"`
	SubFullPasses     int64   `json:"sub_full_passes"`
	SubPrefsEvaluated int64   `json:"sub_prefs_evaluated"`
	SubPrefsFullCost  int64   `json:"sub_prefs_full_cost"`
	HitRatio          float64 `json:"cache_hit_ratio"`
	DropsPerMutation  float64 `json:"cache_drops_per_mutation"`
	EvalRatio         float64 `json:"sub_eval_ratio"`
	FullPassesPerMut  float64 `json:"sub_full_passes_per_mutation"`
}

func countsOver(c0, c1 gridrank.CacheStats, s0, s1 gridrank.SubStats, mutations int) exactCounts {
	e := exactCounts{
		Mutations:         mutations,
		CacheHits:         c1.Hits - c0.Hits,
		CacheMisses:       c1.Misses - c0.Misses,
		CacheDrops:        (c1.Invalidations - c0.Invalidations) + (c1.Flushes - c0.Flushes),
		SubFullPasses:     s1.FullPasses - s0.FullPasses,
		SubPrefsEvaluated: s1.PrefsDiffEvaluated - s0.PrefsDiffEvaluated,
		SubPrefsFullCost:  s1.PrefsDiffFullCost - s0.PrefsDiffFullCost,
	}
	e.HitRatio = ratio(float64(e.CacheHits), float64(e.CacheHits+e.CacheMisses))
	e.DropsPerMutation = ratio(float64(e.CacheDrops), float64(mutations))
	e.EvalRatio = ratio(float64(e.SubPrefsEvaluated), float64(e.SubPrefsFullCost))
	e.FullPassesPerMut = ratio(float64(e.SubFullPasses), float64(mutations))
	return e
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
