// Package cli holds the testable logic behind the command-line tools
// (rrqgen, rrqquery); the main packages are thin flag-parsing wrappers.
package cli

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"gridrank/internal/algo"
	"gridrank/internal/dataset"
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/trace"
	"gridrank/internal/vec"
)

// GenOptions configures dataset generation.
type GenOptions struct {
	Kind   string // "products" or "prefs"
	Dist   string // UN, CL, AC, NO, EX, HOUSE, COLOR, DIANPING
	N      int
	D      int
	Seed   int64
	Out    string
	Format string // "binary" or "csv"
}

// Generate creates a data set file per opts and reports what it wrote.
func Generate(opts GenOptions) (string, error) {
	if opts.Out == "" {
		return "", fmt.Errorf("-out is required")
	}
	if opts.N <= 0 {
		return "", fmt.Errorf("-n must be positive")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var ds *dataset.Dataset
	switch opts.Kind {
	case "products":
		ds = dataset.GenerateProducts(rng, dataset.Distribution(opts.Dist), opts.N, opts.D, dataset.DefaultRange)
	case "prefs":
		ds = dataset.GenerateWeights(rng, dataset.Distribution(opts.Dist), opts.N, opts.D)
	default:
		return "", fmt.Errorf("unknown -kind %q (want products or prefs)", opts.Kind)
	}
	// Validate the format before creating the file: a bad -format must
	// not leave an empty opts.Out behind.
	switch opts.Format {
	case "binary", "", "csv":
	default:
		return "", fmt.Errorf("unknown -format %q (want binary or csv)", opts.Format)
	}
	f, err := os.Create(opts.Out)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if opts.Format == "csv" {
		err = dataset.WriteCSV(f, ds)
	} else {
		err = dataset.WriteBinary(f, ds)
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		// A failed write leaves no partial data set behind.
		os.Remove(opts.Out)
		return "", err
	}
	return fmt.Sprintf("wrote %d %s (%s, d=%d) to %s", ds.Len(), opts.Kind, opts.Dist, ds.Dim, opts.Out), nil
}

// LoadSet reads a data set, choosing the format by file extension
// (".csv" for CSV, anything else binary).
func LoadSet(path string) (*dataset.Dataset, error) {
	if strings.HasSuffix(path, ".csv") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadCSV(f)
	}
	return dataset.LoadBinary(path)
}

// QueryOptions configures one reverse rank query.
type QueryOptions struct {
	PPath, WPath string
	Type         string // "rtk" or "rkr"
	Algo         string // gir, sim, brute, bbr, rta, mpa
	K            int
	QIndex       int    // query product index, or -1
	QRaw         string // comma-separated query vector, or ""
	N            int    // grid partitions
	Capacity     int    // R-tree capacity
	Parallel     int    // intra-query workers for gir (0/1 = sequential)
	ShowStats    bool
	Limit        int           // max printed result rows, 0 = all
	Timeout      time.Duration // per-query deadline, 0 = none
	// Explain, when true, traces the run (data loading, index build and
	// the query's span tree with the Case-1/2/3 breakdown) and prints the
	// phase report after the results. Requires -algo gir.
	Explain bool
}

// checkParallel validates -parallel: intra-query workers are a gir
// feature (0 and 1 scan on one goroutine).
func checkParallel(a interface{ Name() string }, workers int) error {
	if workers == 0 || workers == 1 {
		return nil
	}
	if workers < 0 {
		return fmt.Errorf("-parallel must be non-negative, got %d", workers)
	}
	if _, ok := a.(*algo.GIR); !ok {
		return fmt.Errorf("-parallel is only supported by -algo gir, not %s", a.Name())
	}
	return nil
}

// RunQuery executes one query and writes a human-readable report to w.
// It is RunQueryCtx under a background context.
func RunQuery(w io.Writer, opts QueryOptions) error {
	return RunQueryCtx(context.Background(), w, opts)
}

// RunQueryCtx executes one query under ctx and writes a human-readable
// report to w. The gir algorithm honours cancellation mid-scan (it stops
// within one preference chunk); other algorithms only check the context
// before starting. opts.Timeout, when positive, bounds the query itself —
// not the data-set loading.
func RunQueryCtx(ctx context.Context, w io.Writer, opts QueryOptions) error {
	if opts.PPath == "" || opts.WPath == "" {
		return fmt.Errorf("-p and -w are required")
	}
	if opts.Explain && opts.Algo != "gir" {
		return fmt.Errorf("-explain is only supported by -algo gir, not %s", opts.Algo)
	}
	// With -explain the whole run is traced at rate 1 and the span tree
	// printed after the results; tr stays nil otherwise, making every
	// span call below a free no-op.
	var (
		tracer *trace.Tracer
		tr     *trace.Trace
	)
	if opts.Explain {
		tracer = trace.New(trace.Config{SampleRate: 1, Capacity: 4})
		tr = tracer.Start(opts.Type, trace.Parent{})
	}
	lsp := tr.StartSpan("load_data")
	P, err := LoadSet(opts.PPath)
	if err != nil {
		return fmt.Errorf("loading products: %w", err)
	}
	W, err := LoadSet(opts.WPath)
	if err != nil {
		return fmt.Errorf("loading preferences: %w", err)
	}
	lsp.SetInt("products", int64(P.Len())).SetInt("preferences", int64(W.Len())).End()
	if P.Dim != W.Dim {
		return fmt.Errorf("dimension mismatch: products %d, preferences %d", P.Dim, W.Dim)
	}
	q, err := resolveQueryVector(P, opts)
	if err != nil {
		return err
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	var c stats.Counters
	switch opts.Type {
	case "rtk":
		bsp := tr.StartSpan("build_index")
		a, err := BuildRTK(opts.Algo, P, W, opts.N, opts.Capacity)
		bsp.End()
		if err != nil {
			return err
		}
		if err := checkParallel(a, opts.Parallel); err != nil {
			return err
		}
		var res []int
		if g, ok := a.(*algo.GIR); ok {
			res, c, err = g.ReverseTopKOpts(ctx, q, opts.K, algo.QueryOpts{Workers: opts.Parallel, Trace: tr})
		} else if err = ctx.Err(); err == nil {
			res = a.ReverseTopK(q, opts.K, &c)
		}
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
		fmt.Fprintf(w, "RTK(k=%d) via %s: %d matching preferences\n", opts.K, a.Name(), len(res))
		for i, wi := range res {
			if opts.Limit > 0 && i >= opts.Limit {
				fmt.Fprintf(w, "... and %d more\n", len(res)-opts.Limit)
				break
			}
			fmt.Fprintf(w, "  w[%d] = %s\n", wi, FormatVector(W.Points[wi]))
		}
	case "rkr":
		bsp := tr.StartSpan("build_index")
		a, err := BuildRKR(opts.Algo, P, W, opts.N, opts.Capacity)
		bsp.End()
		if err != nil {
			return err
		}
		if err := checkParallel(a, opts.Parallel); err != nil {
			return err
		}
		var res []topk.Match
		if g, ok := a.(*algo.GIR); ok {
			res, c, err = g.ReverseKRanksOpts(ctx, q, opts.K, algo.QueryOpts{Workers: opts.Parallel, Trace: tr})
		} else if err = ctx.Err(); err == nil {
			res = a.ReverseKRanks(q, opts.K, &c)
		}
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
		fmt.Fprintf(w, "RKR(k=%d) via %s:\n", opts.K, a.Name())
		for i, m := range res {
			if opts.Limit > 0 && i >= opts.Limit {
				fmt.Fprintf(w, "... and %d more\n", len(res)-opts.Limit)
				break
			}
			fmt.Fprintf(w, "  w[%d] ranks q at position %d\n", m.WeightIndex, m.Rank+1)
		}
	default:
		return fmt.Errorf("unknown -type %q (want rtk or rkr)", opts.Type)
	}
	if opts.ShowStats {
		fmt.Fprintln(w, "stats:", c.String())
	}
	if tr != nil {
		tr.SetAttr("k", int64(opts.K))
		tr.Finish()
		fmt.Fprintln(w)
		return trace.WriteText(w, tracer.Get(tr.ID()))
	}
	return nil
}

func resolveQueryVector(P *dataset.Dataset, opts QueryOptions) (vec.Vector, error) {
	switch {
	case opts.QRaw != "":
		var q vec.Vector
		for _, field := range strings.Split(opts.QRaw, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return nil, fmt.Errorf("parsing -q: %w", err)
			}
			q = append(q, x)
		}
		if len(q) != P.Dim {
			return nil, fmt.Errorf("-q has %d values, want %d", len(q), P.Dim)
		}
		return q, nil
	case opts.QIndex >= 0:
		if opts.QIndex >= P.Len() {
			return nil, fmt.Errorf("-qi %d out of range (|P| = %d)", opts.QIndex, P.Len())
		}
		return P.Points[opts.QIndex], nil
	default:
		return nil, fmt.Errorf("one of -qi or -q is required")
	}
}

// BuildRTK constructs a reverse top-k algorithm by name.
func BuildRTK(name string, P, W *dataset.Dataset, n, capacity int) (algo.RTKAlgorithm, error) {
	switch name {
	case "gir":
		return algo.NewGIR(P.Points, W.Points, P.Range, n), nil
	case "sparse":
		return algo.NewSparseGIR(P.Points, W.Points, P.Range, n), nil
	case "sim":
		return algo.NewSIM(P.Points, W.Points), nil
	case "brute":
		return algo.NewBrute(P.Points, W.Points), nil
	case "bbr":
		return algo.NewBBR(P.Points, W.Points, capacity), nil
	case "rta":
		return algo.NewRTA(P.Points, W.Points), nil
	default:
		return nil, fmt.Errorf("algorithm %q does not answer rtk queries", name)
	}
}

// BuildRKR constructs a reverse k-ranks algorithm by name.
func BuildRKR(name string, P, W *dataset.Dataset, n, capacity int) (algo.RKRAlgorithm, error) {
	switch name {
	case "gir":
		return algo.NewGIR(P.Points, W.Points, P.Range, n), nil
	case "sparse":
		return algo.NewSparseGIR(P.Points, W.Points, P.Range, n), nil
	case "sim":
		return algo.NewSIM(P.Points, W.Points), nil
	case "brute":
		return algo.NewBrute(P.Points, W.Points), nil
	case "mpa":
		return algo.NewMPA(P.Points, W.Points, capacity, 5)
	default:
		return nil, fmt.Errorf("algorithm %q does not answer rkr queries", name)
	}
}

// FormatVector renders a vector compactly for CLI output.
func FormatVector(v vec.Vector) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
