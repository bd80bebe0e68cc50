package tpch

import (
	"fmt"
	"testing"

	"codecdb/internal/iogolden"
)

// TestCountsGolden pins what every plan reads over the eight tables of the
// shared fixture: per query, the engine plan's pages read, pruned and
// skipped and bytes decompressed, and the decode-first plan's pages read,
// equal to testdata/counts.golden exactly; a change that moves one
// rewrites the file with -update and says why.
func TestCountsGolden(t *testing.T) {
	ts := sharedTables
	var qs []iogolden.Query
	for q := 1; q <= QueryCount; q++ {
		qs = append(qs, iogolden.Query{
			Name:        fmt.Sprintf("Q%02d", q),
			Engine:      func() error { _, err := ts.CodecDB(q); return err },
			DecodeFirst: func() error { _, err := ts.Oblivious(q); return err },
		})
	}
	iogolden.Check(t, ts.Readers(), qs)
}
