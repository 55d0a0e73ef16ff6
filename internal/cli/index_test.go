package cli

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"gridrank"
)

// buildIndexFile generates data sets and builds an index file via the
// CLI path, returning the index path.
func buildIndexFile(t *testing.T) string {
	t.Helper()
	pPath, wPath := genFiles(t)
	out := filepath.Join(filepath.Dir(pPath), "index.gri")
	var buf bytes.Buffer
	err := RunIndex(&buf, []string{"build", "-products", pPath, "-prefs", wPath, "-grid", "16", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "500 products") {
		t.Fatalf("build output: %q", buf.String())
	}
	return out
}

func TestIndexBuildAndInfo(t *testing.T) {
	out := buildIndexFile(t)
	var buf bytes.Buffer
	if err := RunIndex(&buf, []string{"info", "-index", out}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"format GRI3 (heap)", "500 products", "200 preferences", "dim 4", "grid 16"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("info output missing %q: %q", want, buf.String())
		}
	}
	buf.Reset()
	if err := RunIndex(&buf, []string{"info", "-index", out, "-mmap"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "format GRI3 (") {
		t.Errorf("mmap info output missing format: %q", buf.String())
	}
	for _, want := range []string{"500 products", "200 preferences"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("mmap info output missing %q: %q", want, buf.String())
		}
	}
}

func TestIndexMutationVerbs(t *testing.T) {
	out := buildIndexFile(t)
	var buf bytes.Buffer

	// Batch insert two products (semicolon-separated vectors).
	err := RunIndex(&buf, []string{"insert-product", "-index", out,
		"-v", "1,2,3,4; 5,6,7,8"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "inserted 2 product(s) at id 500") {
		t.Fatalf("insert output: %q", buf.String())
	}

	// Delete three products by id.
	buf.Reset()
	if err := RunIndex(&buf, []string{"delete-product", "-index", out, "-i", "3,5,7"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "now 499 products") {
		t.Fatalf("delete output: %q", buf.String())
	}

	// Insert one preference, delete one.
	buf.Reset()
	if err := RunIndex(&buf, []string{"insert-pref", "-index", out, "-v", "0.25,0.25,0.25,0.25"}); err != nil {
		t.Fatal(err)
	}
	if err := RunIndex(&buf, []string{"delete-pref", "-index", out, "-i", "0"}); err != nil {
		t.Fatal(err)
	}

	// The saved file reflects every mutation and still answers queries.
	ix, err := gridrank.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumProducts() != 499 || ix.NumPreferences() != 200 {
		t.Fatalf("reloaded index is %d×%d, want 499×200", ix.NumProducts(), ix.NumPreferences())
	}
	if _, err := ix.ReverseTopKCtx(context.Background(), ix.Products()[0], 5); err != nil {
		t.Fatalf("reloaded index cannot query: %v", err)
	}
}

func TestIndexVerbErrors(t *testing.T) {
	out := buildIndexFile(t)
	cases := [][]string{
		nil,            // no verb
		{"frobnicate"}, // unknown verb
		{"build"},      // missing -products/-prefs
		{"info", "-index", "/nonexistent/x.gri"},
		{"insert-product", "-index", out}, // missing -v
		{"insert-product", "-index", out, "-v", "1,zap,3,4"},    // bad component
		{"insert-product", "-index", out, "-v", "1,2"},          // wrong dim
		{"insert-pref", "-index", out, "-v", "0.9,0.9,0.9,0.9"}, // not on simplex
		{"delete-product", "-index", out},                       // missing -i
		{"delete-product", "-index", out, "-i", "nine"},         // bad id
		{"delete-product", "-index", out, "-i", "99999"},        // out of range
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := RunIndex(&buf, args); err == nil {
			t.Errorf("RunIndex(%v) succeeded, want error", args)
		}
	}
	// Failed mutations must leave the file loadable and unchanged.
	ix, err := gridrank.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumProducts() != 500 || ix.NumPreferences() != 200 {
		t.Fatalf("index changed by failed verbs: %d×%d", ix.NumProducts(), ix.NumPreferences())
	}
}
