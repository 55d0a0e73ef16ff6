package main

// compare: a hand-rolled comparison of two sets of result files, e.g. a
// parent commit's runs against a change's, using the bounds and directions
// of BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadResults groups a directory's result files by workload and trace
// flag, mapping each metric to its values across the files. It also
// reports every exact count that differs between traced runs of one
// workload and seed.
func loadResults(dir string) (map[string]map[string][]float64, map[string]int, error) {
	exact := map[string]map[string]float64{} // "workload seed" → first traced run's counts
	repeats, mismatches := 0, 0
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no result files in %s", dir)
	}
	vals := map[string]map[string][]float64{}
	runs := map[string]int{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		key := fmt.Sprintf("%s trace=%d", r.Workload, b2i(r.Trace))
		if vals[key] == nil {
			vals[key] = map[string][]float64{}
		}
		runs[key]++
		for name, m := range r.Metrics {
			vals[key][name] = append(vals[key][name], m.Value)
		}
		if !r.Trace {
			continue
		}
		id := fmt.Sprintf("%s seed=%d", r.Workload, r.Seed)
		if exact[id] == nil {
			exact[id] = map[string]float64{}
			for _, name := range exactMetrics {
				exact[id][name] = r.Metrics[name].Value
			}
			continue
		}
		repeats++
		for _, name := range exactMetrics {
			if v := r.Metrics[name].Value; v != exact[id][name] {
				fmt.Printf("%s: exact count %s differs between traced runs of %s: %v vs %v\n", dir, name, id, exact[id][name], v)
				mismatches++
			}
		}
	}
	fmt.Printf("%s: %d traced runs repeated a seed; exact counts that differed: %d\n", dir, repeats, mismatches)
	return vals, runs, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare DIR_A DIR_B  (A is the baseline)")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: run from the repository root:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: BENCHMARK.json:", err)
		return 1
	}
	rules := map[string]rule{}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better == "lower", m.Bound}
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{m.Better == "lower", math.NaN()}
	}
	a, runsA, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	b, runsB, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	return printCompare(a, b, runsA, runsB, rules)
}

type rule struct {
	lower bool
	bound float64 // NaN: a per-layer metric, which has no bound
}

func printCompare(a, b map[string]map[string][]float64, runsA, runsB map[string]int, rules map[string]rule) int {
	var keys []string
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: the two sets share no workload")
		return 1
	}
	for _, k := range keys {
		fmt.Printf("%s  (A: %d runs, B: %d runs)\n", k, runsA[k], runsB[k])
		fmt.Printf("  %-30s %-30s %-30s %8s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
		var names []string
		for n := range a[k] {
			if b[k][n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			r, ok := rules[n]
			if !ok {
				continue
			}
			a1, a2, a3 := quartiles(a[k][n])
			b1, b2, b3 := quartiles(b[k][n])
			delta := ratio(b2-a2, math.Abs(a2))
			fmt.Printf("  %-30s %-30s %-30s %+7.1f%%  %s\n", n,
				fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
				100*delta, verdict(delta, r, ratio(a3-a1, math.Abs(a2)), ratio(b3-b1, math.Abs(b2))))
		}
	}
	return 0
}

// verdict judges B against A. worse is the relative change in the
// metric's bad direction. A change counts as better only when it exceeds
// the baseline's own quartile spread, and as worse only beyond the bound;
// when either side spreads wider than the bound, it is unresolved.
func verdict(delta float64, r rule, spreadA, spreadB float64) string {
	worse, bound := delta, r.bound
	if !r.lower {
		worse = -delta
	}
	switch {
	case math.IsNaN(bound):
		if math.Abs(delta) > max(spreadA, spreadB) {
			return "moved beyond spread (no bound)"
		}
		return "within spread (no bound)"
	case max(spreadA, spreadB) > bound:
		return fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*max(spreadA, spreadB), 100*bound)
	case worse > bound:
		return fmt.Sprintf("WORSE beyond the %.0f%% bound", 100*bound)
	case -worse > spreadA:
		return "better"
	default:
		return "within bound"
	}
}
