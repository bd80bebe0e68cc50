// Package iogolden pins what a benchmark's query plans read: per query,
// the engine plan's pages read, pruned and skipped and bytes decompressed,
// and the decode-first plan's pages read, compared exactly with a golden
// file. The counts do not depend on timing or worker count, so a plan
// change that moves one shows up as a diff of that file. Test code only.
package iogolden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codecdb/internal/colstore"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.golden")

// Query is one query's two plans, run in turn by Check.
type Query struct {
	Name                string
	Engine, DecodeFirst func() error
}

// total sums the timing-independent IO counts over every table reader.
func total(rs []*colstore.Reader) colstore.IOStats {
	var s colstore.IOStats
	for _, r := range rs {
		st := r.Stats()
		s.PagesRead += st.PagesRead
		s.PagesPruned += st.PagesPruned
		s.PagesSkipped += st.PagesSkipped
		s.BytesDecompressed += st.BytesDecompressed
	}
	return s
}

// Check runs every query's plans over the tables read through rs and
// compares their counts with testdata/counts.golden, or rewrites the file
// under -update.
func Check(t *testing.T, rs []*colstore.Reader, qs []Query) {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# query: engine pages_read pages_pruned pages_skipped bytes_decompressed | decode-first pages_read")
	for _, q := range qs {
		before := total(rs)
		if err := q.Engine(); err != nil {
			t.Fatalf("%s engine: %v", q.Name, err)
		}
		mid := total(rs)
		if err := q.DecodeFirst(); err != nil {
			t.Fatalf("%s decode-first: %v", q.Name, err)
		}
		after := total(rs)
		fmt.Fprintf(&buf, "%s: %d %d %d %d | %d\n", q.Name,
			mid.PagesRead-before.PagesRead, mid.PagesPruned-before.PagesPruned,
			mid.PagesSkipped-before.PagesSkipped, mid.BytesDecompressed-before.BytesDecompressed,
			after.PagesRead-mid.PagesRead)
	}
	path := filepath.Join("testdata", "counts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestCountsGolden -update to create it)", err)
	}
	g, w := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s line %d: got %q, want %q", path, i+1, gl, wl)
		}
	}
	if t.Failed() {
		t.Log("rerun with -update if the change is intended")
	}
}
