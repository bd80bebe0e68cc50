// Package iogolden pins what a benchmark's query plans read: per query,
// the engine plan's pages read, pruned and skipped and bytes decompressed,
// the decode-first plan's pages read, and the engine plan's device
// requests (ReadAt calls), compared exactly with a golden file. The counts
// do not depend on timing, worker count or how many prefetch reads are in
// flight at once, so a plan change that moves one shows up as a diff of
// that file. A ratchet rides along: the number of queries whose engine
// plan reads more pages than their decode-first plan may not grow past
// the caller's bound, golden file or -update. Test code only.
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
	"codecdb/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.golden")

// Query is one query's two plans, run in turn by Check.
type Query struct {
	Name                string
	Engine, DecodeFirst func() error
}

// total sums the IO counts over every table reader.
func total(rs []*colstore.Reader) obs.IOStats {
	var s obs.IOStats
	for _, r := range rs {
		s.Add(r.Stats())
	}
	return s
}

// Check runs every query's plans over the tables read through rs and
// compares their counts with testdata/counts.golden, or rewrites the file
// under -update. Either way it fails when more than maxAbove queries'
// engine plans read more pages than their decode-first plans. Every plan
// runs once before the counted pass, so the one-off dictionary reads a
// reader caches fall outside the read_calls column whichever tests ran
// earlier in the process.
func Check(t *testing.T, rs []*colstore.Reader, qs []Query, maxAbove int) {
	t.Helper()
	for _, q := range qs {
		if err := q.Engine(); err != nil {
			t.Fatalf("%s engine: %v", q.Name, err)
		}
		if err := q.DecodeFirst(); err != nil {
			t.Fatalf("%s decode-first: %v", q.Name, err)
		}
	}
	var buf bytes.Buffer
	var above []string
	fmt.Fprintln(&buf, "# query: engine pages_read pages_pruned pages_skipped bytes_decompressed | decode-first pages_read | engine read_calls")
	for _, q := range qs {
		before := total(rs)
		if err := q.Engine(); err != nil {
			t.Fatalf("%s engine: %v", q.Name, err)
		}
		mid := total(rs)
		if err := q.DecodeFirst(); err != nil {
			t.Fatalf("%s decode-first: %v", q.Name, err)
		}
		eng, dec := mid.Sub(before), total(rs).Sub(mid)
		fmt.Fprintf(&buf, "%s: %d %d %d %d | %d | %d\n", q.Name,
			eng.PagesRead, eng.PagesPruned, eng.PagesSkipped, eng.BytesDecompressed, dec.PagesRead, eng.ReadCalls)
		if eng.PagesRead > dec.PagesRead {
			above = append(above, q.Name)
		}
	}
	if len(above) > maxAbove {
		t.Errorf("%d engine plans read more pages than decode-first, at most %d may: %s",
			len(above), maxAbove, strings.Join(above, " "))
	}
	checkGolden(t, buf.Bytes())
}

// checkGolden compares got with testdata/counts.golden, or writes it there
// under -update.
func checkGolden(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "counts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestCountsGolden -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
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
	t.Log("rerun with -update if the change is intended")
}
