package ssb

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/core"
	"codecdb/internal/memtable"
)

var sharedTables *Tables

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ssb")
	if err != nil {
		panic(err)
	}
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		panic(err)
	}
	data := Generate(0.005, 17)
	if err := LoadCodecDB(db, data, colstore.Options{RowGroupRows: 8192, PageRows: 1024}); err != nil {
		panic(err)
	}
	sharedTables, err = OpenTables(db)
	if err != nil {
		panic(err)
	}
	code := m.Run()
	db.Close()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestGenerateShape(t *testing.T) {
	d := Generate(0.002, 3)
	if len(d.Lineorder.OrderKey) != scaled(0.002, lineorderPerSF) {
		t.Fatalf("lineorder rows = %d", len(d.Lineorder.OrderKey))
	}
	if len(d.Date.DateKey) != 7*12*28 {
		t.Fatalf("date dim = %d", len(d.Date.DateKey))
	}
	// Discounts are integer percents 0..10, quantities 1..50.
	for i := range d.Lineorder.Discount {
		if d.Lineorder.Discount[i] < 0 || d.Lineorder.Discount[i] > 10 {
			t.Fatal("discount out of range")
		}
		if d.Lineorder.Quantity[i] < 1 || d.Lineorder.Quantity[i] > 50 {
			t.Fatal("quantity out of range")
		}
		// Revenue consistency: price*(100-disc)/100.
		want := d.Lineorder.ExtendedPrice[i] * (100 - d.Lineorder.Discount[i]) / 100
		if d.Lineorder.Revenue[i] != want {
			t.Fatal("revenue inconsistent with price and discount")
		}
	}
	// Cities must be nation prefix + digit.
	for i := range d.Customer.City {
		if len(d.Customer.City[i]) != 10 {
			t.Fatalf("city %q not 10 chars", d.Customer.City[i])
		}
	}
}

func TestDateDerivations(t *testing.T) {
	if YearOf(19940215) != 1994 {
		t.Fatal("YearOf")
	}
	if YearMonthNumOf(19940215) != 199402 {
		t.Fatal("YearMonthNumOf")
	}
	if string(YearMonthOf(19971201)) != "Dec1997" {
		t.Fatalf("YearMonthOf = %s", YearMonthOf(19971201))
	}
	// Week 6 of the simplified calendar is days 36..42 == Feb 8..14.
	if WeekOf(19940208) != 6 || WeekOf(19940214) != 6 {
		t.Fatal("WeekOf boundaries")
	}
	if WeekOf(19940207) == 6 || WeekOf(19940215) == 6 {
		t.Fatal("WeekOf overreach")
	}
}

func tablesEqual(t *testing.T, q string, a, b *memtable.RowTable) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: %d vs %d rows", q, a.NumRows(), b.NumRows())
	}
	for i := 0; i < a.NumRows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for c := range ra {
			switch va := ra[c].(type) {
			case memtable.Binary:
				if !va.Equal(rb[c].(memtable.Binary)) {
					t.Fatalf("%s row %d col %d: %q vs %q", q, i, c, va, rb[c])
				}
			default:
				if ra[c] != rb[c] {
					t.Fatalf("%s row %d col %d: %v vs %v", q, i, c, ra[c], rb[c])
				}
			}
		}
	}
}

// TestAllEnginesAgree validates every SSB query across the three engines.
func TestAllEnginesAgree(t *testing.T) {
	for _, q := range QueryIDs() {
		q := q
		t.Run("Q"+q, func(t *testing.T) {
			codec, err := sharedTables.CodecDB(q)
			if err != nil {
				t.Fatalf("codecdb: %v", err)
			}
			mor, err := sharedTables.Morph(q)
			if err != nil {
				t.Fatalf("morph: %v", err)
			}
			obl, err := sharedTables.Oblivious(q)
			if err != nil {
				t.Fatalf("oblivious: %v", err)
			}
			tablesEqual(t, q, codec.Table, mor.Table)
			tablesEqual(t, q, codec.Table, obl.Table)
		})
	}
}

func TestFlight1NonTrivial(t *testing.T) {
	res, err := sharedTables.CodecDB("1.1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 {
		t.Fatal("flight 1 returns one row")
	}
	if res.Table.Row(0)[0].(int64) == 0 {
		t.Fatal("Q1.1 revenue is zero; predicates select nothing at test scale")
	}
}

func TestIntermediateFootprintOrdering(t *testing.T) {
	// The Fig 10 shape: CodecDB's bitmap intermediates are smaller than
	// Morph's materialised chain, which is smaller than the decode-first
	// whole-column footprint.
	for _, q := range []string{"1.1", "2.1", "3.1", "4.1"} {
		codec, err := sharedTables.CodecDB(q)
		if err != nil {
			t.Fatal(err)
		}
		mor, err := sharedTables.Morph(q)
		if err != nil {
			t.Fatal(err)
		}
		obl, err := sharedTables.Oblivious(q)
		if err != nil {
			t.Fatal(err)
		}
		if codec.IntermediateBytes <= 0 {
			t.Fatalf("%s: codec intermediates not tracked", q)
		}
		if codec.IntermediateBytes >= obl.IntermediateBytes {
			t.Fatalf("%s: codec %d should be below oblivious %d", q, codec.IntermediateBytes, obl.IntermediateBytes)
		}
		if mor.IntermediateBytes >= obl.IntermediateBytes {
			t.Fatalf("%s: morph %d should be below oblivious %d", q, mor.IntermediateBytes, obl.IntermediateBytes)
		}
	}
}

func TestUnknownQueryRejected(t *testing.T) {
	if _, err := sharedTables.CodecDB("9.9"); err == nil {
		t.Fatal("unknown query should error")
	}
	if _, err := sharedTables.Morph("9.9"); err == nil {
		t.Fatal("unknown query should error")
	}
	if _, err := sharedTables.Oblivious("9.9"); err == nil {
		t.Fatal("unknown query should error")
	}
}

// TestSortGroupRowsMatchesFormattedComparator checks that formatting each
// row once orders result rows exactly as formatting both rows in every
// comparison did: revenue ties fall back to the formatted prefix, and rows
// whose formatted values are equal keep their input order.
func TestSortGroupRowsMatchesFormattedComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows [][]any
	for i := 0; i < 400; i++ {
		// Few distinct values: many revenue ties and many equal prefixes,
		// among them "AB"+"C" against "A"+"BC" and 1997 against 199+7.
		a := []string{"A", "AB", "B", ""}[rng.Intn(4)]
		b := []string{"C", "BC", "", "CC"}[rng.Intn(4)]
		year := []int64{1992, 1997, 199}[rng.Intn(3)]
		rows = append(rows, []any{memtable.Binary(a), memtable.Binary(b), year, int64(rng.Intn(5) * 100)})
	}
	for _, byRevenue := range []bool{false, true} {
		old := slices.Clone(rows)
		if byRevenue {
			sort.SliceStable(old, func(a, b int) bool {
				last := len(old[a]) - 1
				ra, rb := old[a][last].(int64), old[b][last].(int64)
				if ra != rb {
					return ra > rb
				}
				return fmt.Sprint(old[a][:last]) < fmt.Sprint(old[b][:last])
			})
		} else {
			sort.SliceStable(old, func(a, b int) bool { return fmt.Sprint(old[a]) < fmt.Sprint(old[b]) })
		}
		got := sortGroupRows(slices.Clone(rows), byRevenue)
		for i := range old {
			if &got[i][0] != &old[i][0] { // the same row, not an equal one
				t.Fatalf("byRevenue=%v: row %d is %v, want %v", byRevenue, i, got[i], old[i])
			}
		}
	}
}
