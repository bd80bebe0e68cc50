package ssb

import (
	"testing"

	"codecdb/internal/iogolden"
)

// TestCountsGolden pins what every plan reads over the five tables of the
// shared fixture: per query, the engine plan's pages read, pruned and
// skipped and bytes decompressed, and the decode-first plan's pages read,
// equal to testdata/counts.golden exactly; a change that moves one
// rewrites the file with -update and says why. At most 3 engine plans
// (Q1.1, Q4.1, Q4.2) may read more pages than their decode-first twins;
// a plan fix lowers the bound.
func TestCountsGolden(t *testing.T) {
	ts := sharedTables
	var qs []iogolden.Query
	for _, q := range QueryIDs() {
		qs = append(qs, iogolden.Query{
			Name:        "Q" + q,
			Engine:      func() error { _, err := ts.CodecDB(q); return err },
			DecodeFirst: func() error { _, err := ts.Oblivious(q); return err },
		})
	}
	iogolden.Check(t, ts.Readers(), qs, 3)
}
