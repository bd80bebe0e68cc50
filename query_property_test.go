package codecdb

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestQueryEquivalenceProperty loads randomly generated tables with
// randomly assigned encodings and checks that every predicate the public
// API can express returns exactly what a naive in-memory evaluation
// returns — regardless of which operator path (in-situ dictionary scan,
// delta filter, decode-and-test) the engine picked, and regardless of
// which source kind (one file, several shards, shard + sealed memtable +
// active buffer) holds the rows.
func TestQueryEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) + 100))
			n := 500 + rng.Intn(3000)

			ints := make([]int64, n)
			strs := make([][]byte, n)
			vocab := make([][]byte, 2+rng.Intn(20))
			for i := range vocab {
				vocab[i] = []byte(fmt.Sprintf("val-%02d", i*3))
			}
			sorted := rng.Intn(2) == 0
			for i := 0; i < n; i++ {
				if sorted {
					ints[i] = int64(i / (1 + rng.Intn(3)))
				} else {
					ints[i] = rng.Int63n(200)
				}
				strs[i] = vocab[rng.Intn(len(vocab))]
			}
			encs := []Encoding{Dictionary, Delta, BitPacked, Plain, RLE}
			intEnc := encs[rng.Intn(len(encs))]

			cols := []Column{
				{Name: "num", Ints: ints, ForceEncoding: intEnc, Forced: true},
				{Name: "tag", Strings: strs, ForceEncoding: Dictionary, Forced: true},
			}
			opts := LoadOptions{RowGroupRows: 512 + rng.Intn(1024), PageRows: 64 + rng.Intn(256)}
			forEachSource(t, "t", cols, opts, func(t *testing.T, tbl *Table) {
				rng := rand.New(rand.NewSource(int64(trial) + 200)) // the same probes for every kind
				checkEquivalence(t, tbl, rng, intEnc, ints, strs, vocab)
			})
		})
	}
}

func checkEquivalence(t *testing.T, tbl *Table, rng *rand.Rand, intEnc Encoding, ints []int64, strs, vocab [][]byte) {
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	for probe := 0; probe < 12; probe++ {
		op := ops[rng.Intn(len(ops))]
		target := rng.Int63n(220) - 10 // includes out-of-domain values
		got, err := tbl.Where("num", op, target).Count()
		if err != nil {
			t.Fatalf("enc=%v op=%v target=%d: %v", intEnc, op, target, err)
		}
		var want int64
		for _, v := range ints {
			if matchRef(v, op, target) {
				want++
			}
		}
		if got != want {
			t.Fatalf("enc=%v num %v %d: got %d, want %d", intEnc, op, target, got, want)
		}

		sv := vocab[rng.Intn(len(vocab))]
		gotS, err := tbl.Where("tag", op, string(sv)).Count()
		if err != nil {
			t.Fatal(err)
		}
		var wantS int64
		for _, v := range strs {
			if matchRefStr(string(v), op, string(sv)) {
				wantS++
			}
		}
		if gotS != wantS {
			t.Fatalf("tag %v %q: got %d, want %d", op, sv, gotS, wantS)
		}

		// Conjunction across both columns.
		gotC, err := tbl.Where("num", op, target).And("tag", Eq, string(sv)).Count()
		if err != nil {
			t.Fatal(err)
		}
		var wantC int64
		for i := range ints {
			if matchRef(ints[i], op, target) && string(strs[i]) == string(sv) {
				wantC++
			}
		}
		if gotC != wantC {
			t.Fatalf("conjunction: got %d, want %d", gotC, wantC)
		}
	}

	// Gathered values must correspond row-for-row.
	rowsGot, err := tbl.Where("tag", Eq, string(vocab[0])).Ints("num")
	if err != nil {
		t.Fatal(err)
	}
	var rowsWant []int64
	for i := range strs {
		if string(strs[i]) == string(vocab[0]) {
			rowsWant = append(rowsWant, ints[i])
		}
	}
	if len(rowsGot) != len(rowsWant) {
		t.Fatalf("gather length %d, want %d", len(rowsGot), len(rowsWant))
	}
	for i := range rowsWant {
		if rowsGot[i] != rowsWant[i] {
			t.Fatalf("gather row %d: %d, want %d", i, rowsGot[i], rowsWant[i])
		}
	}
}

func matchRef(v int64, op CmpOp, t int64) bool {
	switch op {
	case Eq:
		return v == t
	case Ne:
		return v != t
	case Lt:
		return v < t
	case Le:
		return v <= t
	case Gt:
		return v > t
	default:
		return v >= t
	}
}

func matchRefStr(v string, op CmpOp, t string) bool {
	switch op {
	case Eq:
		return v == t
	case Ne:
		return v != t
	case Lt:
		return v < t
	case Le:
		return v <= t
	case Gt:
		return v > t
	default:
		return v >= t
	}
}
