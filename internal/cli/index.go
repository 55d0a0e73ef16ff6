package cli

// Index-file verbs behind the rrqindex tool: build an index from data
// set files, inspect one, and apply insert/delete mutations. Every
// mutation verb runs Load -> mutate -> Save, so writes go through the
// library's atomic save (temp file + fsync + rename) and a crash at any
// point leaves the previous index intact.

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gridrank"
	"gridrank/internal/vec"
)

// RunIndex dispatches an rrqindex verb: build, info, insert-product,
// delete-product, insert-pref or delete-pref. args holds the verb
// followed by its flags.
func RunIndex(w io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rrqindex <build|info|insert-product|delete-product|insert-pref|delete-pref> [flags]")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "build":
		return runIndexBuild(w, rest)
	case "info":
		return runIndexInfo(w, rest)
	case "insert-product":
		return runIndexInsert(w, rest, "product")
	case "insert-pref":
		return runIndexInsert(w, rest, "preference")
	case "delete-product":
		return runIndexDelete(w, rest, "product")
	case "delete-pref":
		return runIndexDelete(w, rest, "preference")
	default:
		return fmt.Errorf("unknown verb %q", verb)
	}
}

func runIndexBuild(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	fs.SetOutput(w)
	products := fs.String("products", "", "product data set file")
	prefs := fs.String("prefs", "", "preference data set file")
	grid := fs.Int("grid", 0, "grid partitions per axis (0 = auto)")
	out := fs.String("out", "index.gri", "output index file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *products == "" || *prefs == "" {
		return fmt.Errorf("build: -products and -prefs are required")
	}
	P, err := LoadSet(*products)
	if err != nil {
		return err
	}
	W, err := LoadSet(*prefs)
	if err != nil {
		return err
	}
	ix, err := gridrank.New(toVectors(P.Points), toVectors(W.Points),
		&gridrank.Options{GridPartitions: *grid})
	if err != nil {
		return err
	}
	if err := ix.Save(*out); err != nil {
		return err
	}
	fmt.Fprintf(w, "built %s: %d products, %d preferences, dim %d, grid %d, layout %s\n",
		*out, ix.NumProducts(), ix.NumPreferences(), ix.Dim(), ix.GridPartitions(),
		layoutString(ix.Layout()))
	return nil
}

// layoutString renders an index layout for the build and info verbs.
func layoutString(lay gridrank.Layout) string {
	return fmt.Sprintf("packed %d-bit (x%d kernel)", lay.BitsPerDim, lay.RowBlock)
}

func runIndexInfo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	fs.SetOutput(w)
	path := fs.String("index", "index.gri", "index file")
	mmap := fs.Bool("mmap", false, "memory-map the file (GRI3) instead of reading it onto the heap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	open := gridrank.Load
	if *mmap {
		open = gridrank.LoadMmap
	}
	ix, err := open(*path)
	if err != nil {
		return err
	}
	defer ix.Close()
	fmt.Fprintf(w, "%s: format %s (%s), %d products, %d preferences, dim %d, grid %d, %d point groups, %d weight groups, %d bytes grid memory, layout %s\n",
		*path, ix.Format(), ix.Resident(), ix.NumProducts(), ix.NumPreferences(), ix.Dim(), ix.GridPartitions(),
		ix.PointGroups(), ix.WeightGroups(), ix.GridMemoryBytes(), layoutString(ix.Layout()))
	return nil
}

func runIndexInsert(w io.Writer, args []string, kind string) error {
	fs := flag.NewFlagSet("insert-"+kind, flag.ContinueOnError)
	fs.SetOutput(w)
	path := fs.String("index", "index.gri", "index file")
	raw := fs.String("v", "", `vectors to insert: "0.1,0.2" or batch "0.1,0.2;0.3,0.4"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	vs, err := parseVectors(*raw)
	if err != nil {
		return err
	}
	ix, err := gridrank.Load(*path)
	if err != nil {
		return err
	}
	var first int
	if kind == "product" {
		first, err = ix.InsertProducts(vs)
	} else {
		first, err = ix.InsertPreferences(vs)
	}
	if err != nil {
		return err
	}
	if err := ix.Save(*path); err != nil {
		return err
	}
	fmt.Fprintf(w, "inserted %d %s(s) at id %d into %s (now %d products, %d preferences)\n",
		len(vs), kind, first, *path, ix.NumProducts(), ix.NumPreferences())
	return nil
}

func runIndexDelete(w io.Writer, args []string, kind string) error {
	fs := flag.NewFlagSet("delete-"+kind, flag.ContinueOnError)
	fs.SetOutput(w)
	path := fs.String("index", "index.gri", "index file")
	raw := fs.String("i", "", `ids to delete: "3" or batch "3,5,7"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids, err := parseIDs(*raw)
	if err != nil {
		return err
	}
	ix, err := gridrank.Load(*path)
	if err != nil {
		return err
	}
	if kind == "product" {
		err = ix.DeleteProducts(ids)
	} else {
		err = ix.DeletePreferences(ids)
	}
	if err != nil {
		return err
	}
	if err := ix.Save(*path); err != nil {
		return err
	}
	fmt.Fprintf(w, "deleted %d %s(s) from %s (now %d products, %d preferences)\n",
		len(ids), kind, *path, ix.NumProducts(), ix.NumPreferences())
	return nil
}

// toVectors adapts dataset rows to the public Vector type (both are
// []float64 under the hood; the copy is of headers only).
func toVectors(rows []vec.Vector) []gridrank.Vector {
	out := make([]gridrank.Vector, len(rows))
	for i, r := range rows {
		out[i] = gridrank.Vector(r)
	}
	return out
}

// parseVectors parses one or more comma-separated vectors joined by
// semicolons: "0.1,0.2;0.3,0.4".
func parseVectors(s string) ([]gridrank.Vector, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-v is required")
	}
	parts := strings.Split(s, ";")
	out := make([]gridrank.Vector, 0, len(parts))
	for _, part := range parts {
		fields := strings.Split(part, ",")
		v := make(gridrank.Vector, 0, len(fields))
		for _, f := range fields {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("bad vector component %q", f)
			}
			v = append(v, x)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseIDs parses a comma-separated id list: "3" or "3,5,7".
func parseIDs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-i is required")
	}
	fields := strings.Split(s, ",")
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		id, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad id %q", f)
		}
		out = append(out, id)
	}
	return out, nil
}
