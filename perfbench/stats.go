package main

// Order statistics, the environment record and the human-readable report.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile is the p-th percentile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo] + f*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the spread measure the benchmark's acceptance uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := float64(n+1) * float64(i) / 4
		j := int(m)
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := m - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	return float64(kb) / 1024
}

func procField(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == key {
			v, _ := strconv.ParseInt(fields[1], 10, 64)
			return v
		}
	}
	return 0
}

// envInfo records where a run ran, so a noisy neighbour can be told apart
// from a slow program.
type envInfo struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	StealMS    float64 `json:"steal_ms"`
	StealShare float64 `json:"steal_share"`
	TimedS     float64 `json:"timed_s"`
	// The timed phase's one-second windows, those the end-to-end metrics
	// kept, and the steal accrued in the kept ones.
	Windows     int     `json:"windows"`
	WindowsKept int     `json:"windows_kept"`
	KeptStealMS float64 `json:"kept_steal_ms"`
}

// windows splits the timed phase into windows of about a second and
// records the host's CPU steal in each. The end-to-end metrics keep the
// windows in which the host left the CPUs to the benchmark: a stalled
// vCPU stretches whatever request is in flight, by as much as the stall,
// so seconds of heavy steal otherwise decide the tail percentiles.
type windows struct {
	w     []window
	steal int64 // the steal counter when the current window opened
}

type window struct {
	start   time.Time
	dur     time.Duration
	steal   int64 // USER_HZ ticks summed over CPUs
	answers int
}

// quietStealMSPerS is the steal, summed over CPUs, below which a window
// counts as quiet: 1.5 % of two CPUs.
const quietStealMSPerS = 30

func newWindows(t0 time.Time) *windows {
	return &windows{w: []window{{start: t0}}, steal: stealTicks()}
}

// tick closes the current window once it has lasted a second, opens the
// next, and returns the index of the window a request starting now is in.
func (ws *windows) tick(now time.Time) int {
	if cur := &ws.w[len(ws.w)-1]; now.Sub(cur.start) >= time.Second {
		ws.close(now)
		ws.w = append(ws.w, window{start: now})
	}
	return len(ws.w) - 1
}

// close ends the current window at now.
func (ws *windows) close(now time.Time) {
	s := stealTicks()
	cur := &ws.w[len(ws.w)-1]
	cur.dur, cur.steal = now.Sub(cur.start), s-ws.steal
	ws.steal = s
}

// rate is a window's steal in ms per second.
func (w window) rate() float64 {
	if w.dur <= 0 {
		return 0
	}
	// /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
	return float64(w.steal) * 10 / w.dur.Seconds()
}

// kept marks every quiet window, or, if fewer than half the windows were
// quiet, the half with the least steal (earlier first among equals).
func (ws *windows) kept() []bool {
	keep := make([]bool, len(ws.w))
	quiet := 0
	for i, w := range ws.w {
		if w.rate() <= quietStealMSPerS {
			keep[i] = true
			quiet++
		}
	}
	half := (len(ws.w) + 1) / 2
	if quiet >= half {
		return keep
	}
	order := make([]int, len(ws.w))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ws.w[order[a]].rate() < ws.w[order[b]].rate() })
	for _, i := range order[:half] {
		keep[i] = true
	}
	return keep
}

// answersPerSecond is the answers delivered in the kept windows per
// second of them.
func (ws *windows) answersPerSecond(keep []bool) float64 {
	var answers int
	var dur time.Duration
	for i, w := range ws.w {
		if keep[i] {
			answers += w.answers
			dur += w.dur
		}
	}
	return float64(answers) / dur.Seconds()
}

type envStart struct {
	steal int64
	at    time.Time
}

func startEnv() envStart { return envStart{steal: stealTicks(), at: time.Now()} }

// finish records the steal time accrued since start, in ms of CPU time
// summed over all CPUs, and its share of the CPU time available.
func (e envStart) finish(timed time.Duration) envInfo {
	wall := time.Since(e.at)
	// /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
	steal := float64(stealTicks()-e.steal) * 10
	return envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		StealMS:    steal,
		StealShare: steal / (float64(wall.Milliseconds()) * float64(runtime.NumCPU())),
		TimedS:     timed.Seconds(),
	}
}

// stealTicks is the aggregate steal column of /proc/stat.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the human-readable report.
func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%d ops=%d correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, b2i(r.Trace), r.Script.Ops, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(out, "script sha256(first %d ops)=%s\n", r.Script.CountOps, r.Script.SHA256)
	e := r.Env
	fmt.Fprintf(out, "env %s GOMAXPROCS=%d nproc=%d cpu=%q steal=%.0fms (%.2f%% of CPU time) timed=%.2fs windows kept=%d/%d (steal in them %.0fms)\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.StealMS, 100*e.StealShare, e.TimedS, e.WindowsKept, e.Windows, e.KeptStealMS)
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(out, "samples")
	for _, k := range keys {
		fmt.Fprintf(out, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintln(out)
	for i, f := range r.Failures {
		if i == 10 {
			fmt.Fprintf(out, "... %d more failures\n", len(r.Failures)-i)
			break
		}
		fmt.Fprintln(out, "FAIL", f)
	}
	if r.Trace {
		printLayers(out, r)
	}
	keys = keys[:0]
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}
