package codecdb

import (
	"strings"
	"testing"
)

// TestQueryBuilderCopyOnWrite is the regression test for the shared-slice
// builder bug: extending a query prefix twice must produce two independent
// queries, not have the second extension clobber the first.
func TestQueryBuilderCopyOnWrite(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 4000)

	base := tbl.Where("status", Eq, "ERROR")
	high := base.And("level", Ge, 4)
	low := base.And("level", Lt, 2)

	nHigh, err := high.Count()
	if err != nil {
		t.Fatal(err)
	}
	nLow, err := low.Count()
	if err != nil {
		t.Fatal(err)
	}
	nBase, err := base.Count()
	if err != nil {
		t.Fatal(err)
	}
	// status cycles OK,ERROR,RETRY,TIMEOUT and level cycles 0..4, so
	// ERROR rows have level ≡ (4k+1) mod 5: each level equally often.
	if nBase != 1000 {
		t.Fatalf("base count = %d, want 1000 (prefix was mutated by extension)", nBase)
	}
	if nHigh != 200 {
		t.Fatalf("high count = %d, want 200", nHigh)
	}
	if nLow != 400 {
		t.Fatalf("low count = %d, want 400 (second extension saw the first's conjunct)", nLow)
	}
}

// TestQueryErrSurfacesAtBuildTime checks malformed predicates are caught
// when the builder runs — against metadata only — and reported through
// both Err and any terminal.
func TestQueryErrSurfacesAtBuildTime(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 1000)

	cases := []struct {
		name string
		q    *Query
		want string
	}{
		{"missing column", tbl.Where("nope", Eq, 1), "nope"},
		{"type mismatch int on string", tbl.Where("status", Eq, 7), "integer predicate"},
		{"type mismatch string on int", tbl.Where("level", Eq, "three"), "string predicate"},
		{"float on int column", tbl.Where("level", Eq, 1.5), "float predicate"},
		{"IN cross-typed values", tbl.All().AndIn("status", "OK", 3), "integer IN values for string column"},
		{"IN unsupported value type", tbl.All().AndIn("status", 1.5), "unsupported IN value"},
		{"LIKE on int column", tbl.All().AndLike("level", func([]byte) bool { return true }), "string column"},
		{"LIKE nil match", tbl.All().AndLike("status", nil), "non-nil match"},
		{"two-column without shared dict", tbl.All().AndColumns("status", Eq, "level"), "share a dictionary"},
		{"Not of composite", tbl.Query(Not(AllOf(ColEq("level", 1), ColEq("level", 2)))), "De Morgan"},
		{"empty AnyOf", tbl.Query(AnyOf()), "at least one"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.q.Err()
			if err == nil {
				t.Fatal("Err() = nil, want a build-time error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Err() = %v, want substring %q", err, tc.want)
			}
			if _, cErr := tc.q.Count(); cErr == nil {
				t.Fatal("Count() succeeded on an invalid query")
			}
		})
	}

	// IN, LIKE's int twin NOT IN, and GroupCount need no dictionary: on a
	// delta-encoded column they run as equality ORs / a hash count.
	base := int64(1_700_000_000)
	if n, err := tbl.All().AndIn("ts", base+1, base+2, base+5000).Count(); err != nil || n != 2 {
		t.Fatalf("IN on a non-dictionary column = %d, %v; want 2", n, err)
	}
	if n, err := tbl.Query(Not(In("ts", base+1, base+2))).Count(); err != nil || n != 998 {
		t.Fatalf("NOT IN on a non-dictionary column = %d, %v; want 998", n, err)
	}
	if g, err := tbl.Where("ts", Lt, base+3).GroupCount("ts"); err != nil || len(g) != 3 || g["1700000001"] != 1 {
		t.Fatalf("GroupCount on a non-dictionary column = %v, %v", g, err)
	}

	// A bad conjunct poisons the query but must not poison the prefix it
	// was built from.
	good := tbl.Where("level", Ge, 3)
	bad := good.And("missing", Eq, 1)
	if bad.Err() == nil {
		t.Fatal("extension with bad column must error")
	}
	if good.Err() != nil {
		t.Fatalf("prefix inherited the extension's error: %v", good.Err())
	}
	if _, err := good.Count(); err != nil {
		t.Fatalf("prefix no longer runs: %v", err)
	}
}

// TestPredTreeQueries exercises the composed-predicate API end to end:
// AnyOf unions, AllOf intersects, Not complements, and the same counts
// fall out as the hand-computed row cycle.
func TestPredTreeQueries(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 4000)

	// status cycles OK,ERROR,RETRY,TIMEOUT; level cycles 0..4.
	n, err := tbl.Query(AnyOf(ColEq("status", "ERROR"), ColEq("status", "RETRY"))).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("AnyOf count = %d, want 2000", n)
	}

	n, err = tbl.Query(AllOf(
		In("status", "ERROR", "RETRY"),
		Col("level", Ge, 3),
	)).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 800 {
		t.Fatalf("AllOf count = %d, want 800", n)
	}

	n, err = tbl.Query(Not(ColEq("status", "OK"))).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3000 {
		t.Fatalf("Not count = %d, want 3000", n)
	}

	// Nested: ERROR or (RETRY and level < 2).
	n, err = tbl.Query(AnyOf(
		ColEq("status", "ERROR"),
		AllOf(ColEq("status", "RETRY"), Col("level", Lt, 2)),
	)).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1400 {
		t.Fatalf("nested count = %d, want 1400", n)
	}
}
