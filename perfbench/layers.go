package main

// The traced run: per-layer timing from outside the program. Three span
// sources nest per request — the client round trip, a wrapper around the
// server's ServeHTTP, and the library's own per-call durations read from
// the always-on flight recorder — and a layer's self time is its span
// minus the part of it its children cover. With one connection the flight
// digests join to requests by order.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gridrank"
	"gridrank/internal/flight"
)

// exactMetrics are the per-layer metrics made from the program's own
// counts over the script prefix; they repeat exactly for one seed.
var exactMetrics = []string{
	"cache.hit_ratio", "cache.drops_per_mutation", "scan.filter_rate", "scan.refined_per_query",
	"epoch.rebuild_share", "sub.eval_ratio", "sub.full_passes_per_mutation",
}

// flightReadEvery bounds the digests left unread: half the default ring,
// so the ring never wraps past an unread record.
const flightReadEvery = flight.DefaultCapacity / 2

type span struct {
	kind   opKind
	cs, ce int64 // client round trip, Unix ns
	ss, se int64 // ServeHTTP, Unix ns
	recs   []flight.Record
}

type tracer struct {
	ix      *gridrank.Index
	ss, se  atomic.Int64 // written by the ServeHTTP wrapper
	spans   []span
	nextSeq uint64 // the first flight sequence number not yet read
	unread  int    // digests expected since the last read
	recs    []flight.Record
	err     error
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.ss.Store(time.Now().UnixNano())
		h.ServeHTTP(w, r)
		t.se.Store(time.Now().UnixNano())
	})
}

func (t *tracer) start(ix *gridrank.Index) {
	t.ix = ix
	t.nextSeq = uint64(ix.FlightCounts().Recorded)
}

func (t *tracer) begin() {
	t.ss.Store(0)
	t.se.Store(0)
}

func (t *tracer) end(o op, cs, ce time.Time) {
	// The wrapper's end stamp precedes the response's last bytes, which
	// the server flushes after ServeHTTP returns.
	se := t.se.Load()
	for i := 0; se == 0 && i < 1000; i++ {
		runtime.Gosched()
		se = t.se.Load()
	}
	t.spans = append(t.spans, span{kind: o.kind, cs: cs.UnixNano(), ce: ce.UnixNano(), ss: t.ss.Load(), se: se})
	if o.kind == opBatch {
		t.unread += len(o.items)
	} else {
		t.unread++
	}
	if t.unread >= flightReadEvery {
		t.collect()
	}
}

// collect appends the digests written since the last read, in order.
func (t *tracer) collect() {
	t.unread = 0
	if t.err != nil {
		return
	}
	var fresh []flight.Record
	for _, r := range t.ix.FlightRecords() {
		if r.Seq >= t.nextSeq {
			fresh = append(fresh, r)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Seq < fresh[j].Seq })
	for _, r := range fresh {
		if r.Seq != t.nextSeq {
			t.err = fmt.Errorf("flight digest %d lost before it was read", t.nextSeq)
			return
		}
		t.nextSeq++
		if r.Class == flight.ClassQuery || r.Class == flight.ClassMutation {
			t.recs = append(t.recs, r)
		}
	}
}

// join hands each span the digests its request produced.
func (t *tracer) join() error {
	t.collect()
	if t.err != nil {
		return t.err
	}
	next := 0
	take := func(n int, ok func(flight.Record) bool) ([]flight.Record, error) {
		if next+n > len(t.recs) {
			return nil, fmt.Errorf("flight digests ran out at request with %d of %d left", len(t.recs)-next, n)
		}
		out := t.recs[next : next+n]
		next += n
		for _, r := range out {
			if !ok(r) {
				return nil, fmt.Errorf("flight digest %d (%v %v) does not belong to its request", r.Seq, r.Class, r.Op)
			}
		}
		return out, nil
	}
	isQuery := func(r flight.Record) bool { return r.Class == flight.ClassQuery }
	for i := range t.spans {
		sp := &t.spans[i]
		var err error
		switch sp.kind {
		case opRTK:
			sp.recs, err = take(1, func(r flight.Record) bool { return r.Op == flight.OpReverseTopK })
		case opRKR:
			sp.recs, err = take(1, func(r flight.Record) bool { return r.Op == flight.OpReverseKRanks })
		case opBatch:
			sp.recs, err = take(batchItems, isQuery)
		default:
			sp.recs, err = take(1, func(r flight.Record) bool { return r.Class == flight.ClassMutation })
		}
		if err != nil {
			return fmt.Errorf("joining request %d: %w", i, err)
		}
	}
	if next != len(t.recs) {
		return fmt.Errorf("%d flight digests left after the last request", len(t.recs)-next)
	}
	return nil
}

// covered is the length of the union of the digests' intervals within
// [lo, hi].
func covered(recs []flight.Record, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(recs))
	for _, r := range recs {
		a, b := max(r.Unix-r.DurNs, lo), min(r.Unix, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer    string             `json:"layer"`
	Module   string             `json:"module"`
	SelfP50  float64            `json:"self_p50"`
	SelfUnit string             `json:"self_unit"`
	Share    float64            `json:"share_of_request_time"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

type layerReport struct {
	rows    []layerRow
	metrics map[string]metric
}

func (t *tracer) finish(w workload, c exactCounts) (*layerReport, error) {
	if err := t.join(); err != nil {
		return nil, err
	}
	var transport, serverSelf, hitUS, rtkMS, rkrMS, batchMS, deriveMS, rebuildMS []float64
	var total, tTransport, tServer, tHit, tRTK, tRKR, tBatch, tEpoch float64
	var itemNs, batchCap float64
	var c12, c3, misses, rebuilds, mutations float64
	for i, sp := range t.spans {
		prefix := i < w.countOps
		client := float64(sp.ce - sp.cs)
		serve := float64(sp.se - sp.ss)
		lib := float64(covered(sp.recs, sp.ss, sp.se))
		total += client
		transport = append(transport, (client-serve)/1e3)
		serverSelf = append(serverSelf, (serve-lib)/1e3)
		tTransport += client - serve
		tServer += serve - lib
		for _, r := range sp.recs {
			if r.Class == flight.ClassQuery && r.Flags&flight.FlagCacheHit != 0 {
				hitUS = append(hitUS, float64(r.DurNs)/1e3)
			}
		}
		switch sp.kind {
		case opRTK, opRKR:
			r := sp.recs[0]
			if r.Flags&flight.FlagCacheHit != 0 {
				tHit += lib
				break
			}
			if sp.kind == opRTK {
				tRTK += lib
				rtkMS = append(rtkMS, float64(r.DurNs)/1e6)
			} else {
				tRKR += lib
				rkrMS = append(rkrMS, float64(r.DurNs)/1e6)
			}
			if prefix {
				c12 += float64(r.Case1 + r.Case2)
				c3 += float64(r.Case3)
				misses++
			}
		case opBatch:
			tBatch += lib
			batchMS = append(batchMS, lib/1e6)
			for _, r := range sp.recs {
				itemNs += float64(r.DurNs)
			}
			batchCap += batchWorkers * serve
		default:
			r := sp.recs[0]
			tEpoch += lib
			derived := r.Flags&flight.FlagDerived != 0
			if derived {
				deriveMS = append(deriveMS, float64(r.DurNs)/1e6)
			} else {
				rebuildMS = append(rebuildMS, float64(r.DurNs)/1e6)
			}
			if prefix {
				mutations++
				if !derived {
					rebuilds++
				}
			}
		}
	}
	m := map[string]metric{
		"transport.self_us.p50":        {median(transport), "us"},
		"server.self_us.p50":           {median(serverSelf), "us"},
		"cache.hit_ratio":              {c.HitRatio, "ratio"},
		"cache.hit_us.p50":             {median(hitUS), "us"},
		"cache.drops_per_mutation":     {c.DropsPerMutation, "ratio"},
		"scan.rtk_ms.p50":              {median(rtkMS), "ms"},
		"scan.rkr_ms.p50":              {median(rkrMS), "ms"},
		"scan.rkr_ms.p90":              {percentile(rkrMS, 90), "ms"},
		"scan.filter_rate":             {ratio(c12, c12+c3), "ratio"},
		"scan.refined_per_query":       {ratio(c3, misses), "count"},
		"batch.busy_ratio":             {ratio(itemNs, batchCap), "ratio"},
		"epoch.derive_ms.p50":          {median(deriveMS), "ms"},
		"epoch.rebuild_ms.p50":         {median(rebuildMS), "ms"},
		"epoch.rebuild_share":          {ratio(rebuilds, mutations), "ratio"},
		"sub.eval_ratio":               {c.EvalRatio, "ratio"},
		"sub.full_passes_per_mutation": {c.FullPassesPerMut, "ratio"},
	}
	share := func(x float64) float64 { return ratio(x, total) }
	rows := []layerRow{
		{Layer: "transport", Module: "net/http over loopback", SelfP50: median(transport), SelfUnit: "us", Share: share(tTransport)},
		{Layer: "server", Module: "internal/server", SelfP50: median(serverSelf), SelfUnit: "us", Share: share(tServer)},
		{Layer: "cache hit", Module: "internal/cache", SelfP50: median(hitUS), SelfUnit: "us", Share: share(tHit),
			Counts: map[string]float64{"hit_ratio": c.HitRatio, "drops_per_mutation": c.DropsPerMutation}},
		{Layer: "scan rtk (miss)", Module: "internal/algo, grid, bits, vec", SelfP50: median(rtkMS), SelfUnit: "ms", Share: share(tRTK),
			Counts: map[string]float64{"filter_rate": m["scan.filter_rate"].Value, "refined_per_query": m["scan.refined_per_query"].Value}},
		{Layer: "scan rkr (miss)", Module: "internal/algo, grid, bits, vec", SelfP50: median(rkrMS), SelfUnit: "ms", Share: share(tRKR),
			Counts: map[string]float64{"p90_ms": percentile(rkrMS, 90)}},
		{Layer: "batch fan-out", Module: "batch.go", SelfP50: median(batchMS), SelfUnit: "ms", Share: share(tBatch),
			Counts: map[string]float64{"busy_ratio": m["batch.busy_ratio"].Value}},
		{Layer: "epoch install", Module: "mutate.go, internal/grid", SelfP50: median(rebuildMS), SelfUnit: "ms", Share: share(tEpoch),
			Counts: map[string]float64{"derive_p50_ms": median(deriveMS), "rebuild_share": m["epoch.rebuild_share"].Value}},
		{Layer: "subscription diff", Module: "internal/sub (inside epoch install)",
			Counts: map[string]float64{"eval_ratio": c.EvalRatio, "full_passes_per_mutation": c.FullPassesPerMut}},
	}
	return &layerReport{rows: rows, metrics: m}, nil
}

func printLayers(out io.Writer, r *result) {
	fmt.Fprintf(out, "per-layer cost (traced; self time = span minus child spans; share = of summed client round trips; (c) counts cover the first %d ops)\n", r.Script.CountOps)
	fmt.Fprintf(out, "  %-18s %-38s %12s %8s  %s\n", "layer", "module", "self p50", "share", "counts")
	for _, l := range r.Layers {
		self := "-"
		if l.SelfUnit != "" {
			self = fmt.Sprintf("%.4g %s", l.SelfP50, l.SelfUnit)
		}
		share := "-"
		if l.Share > 0 {
			share = fmt.Sprintf("%.1f%%", 100*l.Share)
		}
		keys := make([]string, 0, len(l.Counts))
		for k := range l.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var cs []string
		for _, k := range keys {
			cs = append(cs, fmt.Sprintf("%s=%.4g", k, l.Counts[k]))
		}
		fmt.Fprintf(out, "  %-18s %-38s %12s %8s  %s\n", l.Layer, l.Module, self, share, strings.Join(cs, " "))
	}
	fmt.Fprintf(out, "  %-18s %-38s alloc=%.4g KB/op gc=%.0f cycles pause=%.4g ms\n", "runtime", "Go runtime",
		r.Metrics["alloc_kb_per_op"].Value, r.Metrics["gc.cycles"].Value, r.Metrics["gc.pause_ms"].Value)
	if o := r.Overhead; o != nil {
		fmt.Fprintf(out, "tracing overhead: %.1f answers/s traced vs %.1f untraced (%s) = %.1f%% slower\n",
			o.Traced, o.Untraced, o.File, 100*o.Slowdown)
	} else {
		fmt.Fprintf(out, "tracing overhead: traced %.1f answers/s; no untraced run of this workload and seed recorded yet\n",
			r.Metrics["traced.answers_per_s"].Value)
	}
}

// overhead compares the traced run's throughput with the newest untraced
// run of the same workload and seed.
type overhead struct {
	File     string  `json:"untraced_file"`
	Untraced float64 `json:"untraced_answers_per_s"`
	Traced   float64 `json:"traced_answers_per_s"`
	Slowdown float64 `json:"slowdown"`
}

func findOverhead(dir, workload string, seed int64, traced float64) *overhead {
	files, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace0-*.json", workload, seed)))
	sort.Strings(files) // the suffix is a Unix-nanosecond stamp of equal width
	for i := len(files) - 1; i >= 0; i-- {
		b, err := os.ReadFile(files[i])
		if err != nil {
			continue
		}
		var r result
		if json.Unmarshal(b, &r) != nil || r.Metrics["answers_per_s"].Value == 0 {
			continue
		}
		u := r.Metrics["answers_per_s"].Value
		return &overhead{File: filepath.Base(files[i]), Untraced: u, Traced: traced, Slowdown: 1 - traced/u}
	}
	return nil
}
