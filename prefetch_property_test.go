package codecdb

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/vfs"
)

// checkPrefetchAgree runs every terminal with the page prefetcher on and
// off and fails on any mismatch. Unlike the engine-equivalence check,
// both sides run the same pipelined plan, so every terminal — SumFloat
// included — must be byte-identical: prefetching may only change how
// bytes arrive, never which rows they decode to.
func checkPrefetchAgree(t *testing.T, iter int, q *Query) {
	t.Helper()
	nq := q.withoutPrefetch()

	gotN, err := q.Count()
	if err != nil {
		t.Fatalf("iter %d: prefetch Count: %v", iter, err)
	}
	wantN, err := nq.Count()
	if err != nil {
		t.Fatalf("iter %d: no-prefetch Count: %v", iter, err)
	}
	if gotN != wantN {
		t.Fatalf("iter %d: Count = %d, no-prefetch = %d", iter, gotN, wantN)
	}

	gotIDs, err := q.RowIDs()
	if err != nil {
		t.Fatalf("iter %d: prefetch RowIDs: %v", iter, err)
	}
	wantIDs, err := nq.RowIDs()
	if err != nil {
		t.Fatalf("iter %d: no-prefetch RowIDs: %v", iter, err)
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("iter %d: RowIDs diverge: prefetch %d rows, no-prefetch %d rows", iter, len(gotIDs), len(wantIDs))
	}

	gotInts, err := q.Ints("small")
	if err != nil {
		t.Fatalf("iter %d: prefetch Ints: %v", iter, err)
	}
	wantInts, err := nq.Ints("small")
	if err != nil {
		t.Fatalf("iter %d: no-prefetch Ints: %v", iter, err)
	}
	if !reflect.DeepEqual(gotInts, wantInts) {
		t.Fatalf("iter %d: Ints diverge: prefetch %d vals, no-prefetch %d vals", iter, len(gotInts), len(wantInts))
	}

	gotStrs, err := q.Strings("cat")
	if err != nil {
		t.Fatalf("iter %d: prefetch Strings: %v", iter, err)
	}
	wantStrs, err := nq.Strings("cat")
	if err != nil {
		t.Fatalf("iter %d: no-prefetch Strings: %v", iter, err)
	}
	if len(gotStrs) != len(wantStrs) {
		t.Fatalf("iter %d: Strings diverge: prefetch %d vals, no-prefetch %d vals", iter, len(gotStrs), len(wantStrs))
	}
	for i := range gotStrs {
		if string(gotStrs[i]) != string(wantStrs[i]) {
			t.Fatalf("iter %d: Strings[%d] = %q, no-prefetch %q", iter, i, gotStrs[i], wantStrs[i])
		}
	}

	gotG, err := q.GroupCount("cat")
	if err != nil {
		t.Fatalf("iter %d: prefetch GroupCount: %v", iter, err)
	}
	wantG, err := nq.GroupCount("cat")
	if err != nil {
		t.Fatalf("iter %d: no-prefetch GroupCount: %v", iter, err)
	}
	if !reflect.DeepEqual(gotG, wantG) {
		t.Fatalf("iter %d: GroupCount = %v, no-prefetch = %v", iter, gotG, wantG)
	}

	gotS, err := q.SumFloat("score")
	if err != nil {
		t.Fatalf("iter %d: prefetch SumFloat: %v", iter, err)
	}
	wantS, err := nq.SumFloat("score")
	if err != nil {
		t.Fatalf("iter %d: no-prefetch SumFloat: %v", iter, err)
	}
	if math.Float64bits(gotS) != math.Float64bits(wantS) {
		t.Fatalf("iter %d: SumFloat = %v, no-prefetch = %v", iter, gotS, wantS)
	}
}

// TestPrefetchMatchesSynchronous is the prefetch-equivalence property:
// for random predicate trees over every encoding, every terminal with
// async page prefetch enabled agrees with the same pipeline reading
// synchronously — with page zone maps on and off (zoneMapModes). After
// each round the bytes-in-flight gauge must be back at zero: every pooled
// buffer the fetcher staged was released.
func TestPrefetchMatchesSynchronous(t *testing.T) {
	const n = 3000
	db := openTestDB(t)
	for fi, f := range zoneMapModes {
		f := f
		t.Run(f.name, func(t *testing.T) {
			d := propTable(t, db, fmt.Sprintf("preprop%d", fi), n)
			tbl, err := db.Table(fmt.Sprintf("preprop%d", fi))
			if err != nil {
				t.Fatal(err)
			}
			tbl.inner.R.SetPagePruning(f.prune)
			before := colstore.GlobalStats()
			// The degenerate query: no predicate, terminal-only prefetch.
			checkPrefetchAgree(t, -1, tbl.All())
			for iter := 0; iter < 25; iter++ {
				rng := rand.New(rand.NewSource(int64(9000*fi + iter)))
				p, _ := genPred(rng, d, 1+rng.Intn(2))
				q := tbl.Query(p)
				if err := q.Err(); err != nil {
					t.Fatalf("iter %d: build error: %v", iter, err)
				}
				checkPrefetchAgree(t, iter, q)
			}
			after := colstore.GlobalStats()
			if after.BytesInFlight != 0 {
				t.Fatalf("bytes-in-flight gauge = %d after all queries, want 0", after.BytesInFlight)
			}
			// Guard against the property passing vacuously: the fetcher
			// must have served (or at least raced for) pages.
			if served := (after.PrefetchHits + after.PrefetchMisses) - (before.PrefetchHits + before.PrefetchMisses); served == 0 {
				t.Fatal("prefetcher never engaged: 0 hits and 0 misses across all iterations")
			}
		})
	}
}

// TestPrefetchFaultsSurfaceTyped runs queries whose pages arrive through
// every kind of fetch unit — the first filter stage (scheduled when
// prefetch is on), a second filter stage on another column and a sink
// gather (demand units) — over a table behind a fault-injecting
// filesystem. A failed coalesced read falls back to the synchronous
// per-page path, so a query either answers exactly what it answers with
// no faults or fails with the typed error that path reports: an injected
// read error as vfs.ErrInjected (or a short read), a flipped bit as a
// *colstore.CorruptionError naming the page. After every query, failed or
// not, the bytes-in-flight gauge is back at zero.
func TestPrefetchFaultsSurfaceTyped(t *testing.T) {
	queries := []struct {
		name string
		run  func(q *Query) (any, error)
	}{
		{"Count", func(q *Query) (any, error) { return q.Count() }},
		{"GroupCount", func(q *Query) (any, error) { return q.GroupCount("cat") }},
		{"SumFloat", func(q *Query) (any, error) { return q.SumFloat("score") }},
		{"Strings", func(q *Query) (any, error) { return q.Strings("tag") }},
	}
	for _, fault := range []struct {
		name  string
		cfg   vfs.FaultConfig
		typed func(error) bool
	}{
		{"read errors", vfs.FaultConfig{Seed: 26, ErrProb: 0.4, ShortReadProb: 0.05}, func(err error) bool {
			return errors.Is(err, vfs.ErrInjected) || errors.Is(err, io.ErrUnexpectedEOF)
		}},
		{"bit flips", vfs.FaultConfig{Seed: 27, BitFlipProb: 0.1}, func(err error) bool {
			var ce *colstore.CorruptionError
			return errors.As(err, &ce) && ce.RowGroup >= 0 && ce.Page >= 0 && ce.Column != ""
		}},
	} {
		t.Run(fault.name, func(t *testing.T) {
			ffs := vfs.NewFaultFS(vfs.OS(), fault.cfg)
			db, err := Open(t.TempDir(), Options{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			propTable(t, db, "faulty", 3000)
			tbl, err := db.Table("faulty")
			if err != nil {
				t.Fatal(err)
			}
			q := tbl.Where("grade", Ge, 2).And("small", Lt, 500)
			wants := make([]any, len(queries))
			for i, qc := range queries {
				if wants[i], err = qc.run(q); err != nil { // also loads the dictionaries
					t.Fatal(err)
				}
			}
			ffs.SetEnabled(true)
			defer ffs.SetEnabled(false)
			ok, failed := 0, 0
			for iter := 0; iter < 20; iter++ {
				for i, qc := range queries {
					for _, pq := range []*Query{q, q.withoutPrefetch()} {
						got, err := qc.run(pq)
						if bif := tbl.IOStats().BytesInFlight; bif != 0 {
							t.Fatalf("%s iter %d: bytes-in-flight = %d after the query", qc.name, iter, bif)
						}
						switch {
						case err != nil && !fault.typed(err):
							t.Fatalf("%s iter %d: untyped failure: %v", qc.name, iter, err)
						case err != nil:
							failed++
						case !reflect.DeepEqual(got, wants[i]):
							t.Fatalf("%s iter %d: %v, without faults %v", qc.name, iter, got, wants[i])
						default:
							ok++
						}
					}
				}
			}
			if ok == 0 || failed == 0 {
				t.Fatalf("%d queries answered, %d failed: both paths must be exercised", ok, failed)
			}
			t.Logf("%d queries answered, %d failed typed", ok, failed)
		})
	}
}
