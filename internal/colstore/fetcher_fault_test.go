package colstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/vfs"
)

// TestPrefetchFailureFallsBackTyped drives the page fetcher through a
// fault-injecting FS along each way a scan reads through it: a scheduled
// unit walked in the background (a first filter stage), a demand unit
// built from a declared page list (a later filter stage) and one built
// from a selection (a sink gather). A read that fails must never surface
// its own error shape — the consumer falls back to the synchronous path,
// which either recovers the true bytes or reports the same typed error a
// non-fetching read would: injected read errors as vfs.ErrInjected or a
// short read, a flipped bit as a *CorruptionError naming the page. And no
// matter which way each page went, closing the fetcher must return the
// bytes-in-flight gauge to zero: pooled buffers staged for failed or
// unconsumed reads cannot leak.
func TestPrefetchFailureFallsBackTyped(t *testing.T) {
	path := writeSmallTable(t, Options{})
	clean, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	all := make([]int, clean.Chunk(0, 0).NumPages())
	for p := range all {
		all[p] = p
	}
	stage := []int{1, 3} // the pages a later stage's selection leaves
	sel := bitutil.NewBitmap(clean.RowGroupRows(0))
	for i := 0; i < sel.Len(); i += 7 {
		sel.Set(i)
	}

	// Each shape reads a result the clean reader's synchronous path must
	// reproduce exactly.
	shapes := []struct {
		name string
		read func(r *Reader, f *PageFetcher) (any, error)
	}{
		{"scheduled", func(r *Reader, f *PageFetcher) (any, error) {
			f.Schedule(0, 0, all)
			f.Start(context.Background())
			return r.Chunk(0, 0).Fetch(f).Ints()
		}},
		{"stage", func(r *Reader, f *PageFetcher) (any, error) {
			sc := arena.Get()
			defer arena.Put(sc)
			c := r.Chunk(0, 0).Fetch(f).Want(stage)
			var out [][]byte
			for _, p := range stage {
				body, err := c.PageBodyScratch(p, sc)
				if err != nil {
					return nil, err
				}
				out = append(out, bytes.Clone(body))
			}
			return out, nil
		}},
		{"gather", func(r *Reader, f *PageFetcher) (any, error) {
			return r.Chunk(0, 1).Fetch(f).GatherStrings(sel, nil)
		}},
	}
	faults := []struct {
		name  string
		cfg   vfs.FaultConfig
		typed func(error) bool
	}{
		{"read errors", vfs.FaultConfig{Seed: 17, ErrProb: 0.5, ShortReadProb: 0.10}, func(err error) bool {
			return errors.Is(err, vfs.ErrInjected) || errors.Is(err, io.ErrUnexpectedEOF)
		}},
		{"bit flips", vfs.FaultConfig{Seed: 18, BitFlipProb: 0.4}, func(err error) bool {
			var ce *CorruptionError
			return errors.As(err, &ce) && ce.RowGroup == 0 && ce.Page >= 0 && ce.Column != ""
		}},
	}
	for _, shape := range shapes {
		want, err := shape.read(clean, NewPageFetcher(clean))
		if err != nil {
			t.Fatal(err)
		}
		for _, fault := range faults {
			ffs := vfs.NewFaultFS(vfs.OS(), fault.cfg)
			r, err := OpenFS(ffs, path)
			if err != nil {
				t.Fatal(err)
			}
			// Dictionaries load once per reader, before the faults start:
			// the page reads are under test.
			if _, err := r.IntDict(0); err != nil {
				t.Fatal(err)
			}
			if _, err := r.StrDict(1); err != nil {
				t.Fatal(err)
			}
			ffs.SetEnabled(true)
			succeeded, failed := 0, 0
			for i := 0; i < 200; i++ {
				f := NewPageFetcher(r)
				got, err := shape.read(r, f)
				f.FinishGroup(0)
				f.Close()
				if bif := r.Stats().BytesInFlight; bif != 0 {
					t.Fatalf("%s, %s, iteration %d: bytes-in-flight = %d after Close, want 0", shape.name, fault.name, i, bif)
				}
				if err != nil {
					failed++
					if !fault.typed(err) {
						t.Fatalf("%s, %s, iteration %d: untyped failure through the fetcher: %v", shape.name, fault.name, i, err)
					}
					continue
				}
				succeeded++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s, iteration %d: torn read through the fetcher", shape.name, fault.name, i)
				}
			}
			if errs, shorts, flips := ffs.Injected(); errs+shorts+flips == 0 {
				t.Fatalf("%s, %s: fault injection never fired; test is vacuous", shape.name, fault.name)
			}
			if succeeded == 0 || failed == 0 {
				t.Fatalf("%s, %s: %d ok, %d failed: both the retry and the typed error must be exercised",
					shape.name, fault.name, succeeded, failed)
			}
			t.Logf("%s, %s: %d ok, %d failed", shape.name, fault.name, succeeded, failed)
			r.Close()
		}
	}
}

// TestPrefetchDemandUnitsReleased checks the demand units' lifetime: a
// miss on one page reads every page the chunk declared in one request, the
// unit serves the rest zero-copy until its row group finishes, and
// FinishGroup and Close return every staged byte.
func TestPrefetchDemandUnitsReleased(t *testing.T) {
	path := writeSmallTable(t, Options{})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := r.Chunk(0, 1).NumPages()
	sel := bitutil.NewBitmap(r.RowGroupRows(0))
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < sel.Len(); i++ {
		if rng.Intn(50) == 0 {
			sel.Set(i)
		}
	}
	want, err := r.Chunk(0, 1).GatherStrings(sel, nil)
	if err != nil {
		t.Fatal(err)
	}

	f := NewPageFetcher(r)
	before := r.Stats()
	got, err := r.Chunk(0, 1).Fetch(f).GatherStrings(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("gather through a demand unit disagrees with the synchronous gather")
	}
	st := r.Stats()
	if misses := st.PrefetchMisses - before.PrefetchMisses; misses != 1 {
		t.Fatalf("gather over %d pages claimed %d demand units, want 1", n, misses)
	}
	if st.BytesInFlight == 0 {
		t.Fatal("demand unit released before its row group finished")
	}
	f.FinishGroup(0)
	if bif := r.Stats().BytesInFlight; bif != 0 {
		t.Fatalf("bytes-in-flight = %d after FinishGroup, want 0", bif)
	}
	// A released row group's pages demand-read again, from a recycled unit.
	if _, err := r.Chunk(0, 1).Fetch(f).Strings(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if bif := r.Stats().BytesInFlight; bif != 0 {
		t.Fatalf("bytes-in-flight = %d after Close, want 0", bif)
	}
}
