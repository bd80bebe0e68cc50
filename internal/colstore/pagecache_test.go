package colstore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func TestPageCacheBasics(t *testing.T) {
	c := NewPageCache(1 << 20)
	body := []byte("0123456789")
	if _, ok := c.Get(1, 0, 0, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 0, 0, 0, body)
	got, ok := c.Get(1, 0, 0, 0)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, body)
	}
	// The cache owns a copy: mutating the original must not leak through.
	body[0] = 'X'
	got, _ = c.Get(1, 0, 0, 0)
	if got[0] != '0' {
		t.Fatal("cache aliases caller's buffer")
	}
	// A different reader ID is a different epoch: no cross-talk.
	if _, ok := c.Get(2, 0, 0, 0); ok {
		t.Fatal("hit across reader IDs")
	}
	c.InvalidateReader(1)
	if _, ok := c.Get(1, 0, 0, 0); ok {
		t.Fatal("hit after InvalidateReader")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after invalidate: %+v", st)
	}
}

func TestPageCacheEvictionRespectsBudget(t *testing.T) {
	c := NewPageCache(64 << 10) // floor budget: 4 KiB per shard
	body := make([]byte, 1024)
	for i := 0; i < 1000; i++ {
		c.Put(7, i, 0, 0, body)
	}
	st := c.Stats()
	if st.Bytes > 64<<10 {
		t.Fatalf("cache holds %d bytes, budget 64 KiB", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a tight budget")
	}
	// Oversized bodies are rejected, not admitted-then-evicted.
	huge := make([]byte, 64<<10)
	c.Put(7, 0, 1, 0, huge)
	if _, ok := c.Get(7, 0, 1, 0); ok {
		t.Fatal("oversized body was admitted")
	}
	if c.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestPageCacheScanResistant pins the insertion policy on a cyclic scan
// larger than the cache: pages that total 1.5× the budget, read in the
// same order ten times, each miss filled with Put. Plain LRU evicts every
// page just before its next use and never hits; bimodal insertion keeps a
// stable share resident, so from the third loop on each loop hits on at
// least half its pages. A new reader's small hot set, repeated afterwards,
// must still take over: some round within 64 hits on at least 90% of it.
// No clock and no randomness: the outcome is the same on every run.
func TestPageCacheScanResistant(t *testing.T) {
	const (
		budget = 256 << 10
		page   = 1 << 10
	)
	c := NewPageCache(budget)
	body := make([]byte, page)
	pass := func(reader uint64, pages int) float64 {
		hits := 0
		for i := 0; i < pages; i++ {
			if _, ok := c.Get(reader, i, 0, 0); ok {
				hits++
				continue
			}
			c.Put(reader, i, 0, 0, body)
		}
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, budget)
		}
		return float64(hits) / float64(pages)
	}

	const loopPages = budget * 3 / 2 / page
	for loop := 0; loop < 10; loop++ {
		share := pass(1, loopPages)
		if loop >= 2 && share < 0.5 {
			t.Errorf("loop %d over %d pages (1.5x the cache) hit %.3f, want >= 0.5", loop, loopPages, share)
		}
	}

	const hotPages = budget / 4 / page
	for round := 0; ; round++ {
		if round == 64 {
			t.Fatalf("a hot set of %d pages (1/4 of the cache) never reached 90%% hits in 64 rounds", hotPages)
		}
		if share := pass(2, hotPages); share >= 0.9 {
			t.Logf("hot set reached %.3f hits in round %d", share, round)
			break
		}
	}
}

func TestPageCacheConcurrent(t *testing.T) {
	c := NewPageCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("worker-%d", g))
			for i := 0; i < 500; i++ {
				c.Put(uint64(g%2), i%16, g, 0, body)
				if got, ok := c.Get(uint64(g%2), i%16, g, 0); ok {
					if !bytes.Equal(got, body) {
						t.Errorf("torn read: %q", got)
						return
					}
				}
				if g == 0 && i%100 == 0 {
					c.InvalidateReader(1)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPageCacheServesReader proves the reader-level integration: with a
// cache attached, a second pass over the same pages moves only the
// cache-hit counter — PagesRead, BytesRead, and BytesDecompressed stay
// flat — and the bodies are byte-identical to the uncached read.
func TestPageCacheServesReader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.cdb")
	ints := make([]int64, 20000)
	for i := range ints {
		ints[i] = int64(i % 97)
	}
	schema := Schema{Columns: []Column{{Name: "v", Type: TypeInt64, Encoding: 0}}}
	if err := WriteFile(path, schema, []ColumnData{{Ints: ints}}, Options{RowGroupRows: 8192, PageRows: 1024}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetPageCache(NewPageCache(8 << 20))

	read := func() [][]byte {
		var bodies [][]byte
		for rg := 0; rg < r.NumRowGroups(); rg++ {
			ch := r.Chunk(rg, 0)
			for p := 0; p < ch.NumPages(); p++ {
				b, err := ch.PageBodyScratch(p, nil)
				if err != nil {
					t.Fatal(err)
				}
				bodies = append(bodies, append([]byte(nil), b...))
			}
		}
		return bodies
	}
	first := read()
	st1 := r.Stats()
	if st1.PageCacheHits != 0 {
		t.Fatalf("cold pass hit the cache: %+v", st1)
	}
	second := read()
	st2 := r.Stats()
	if st2.PagesRead != st1.PagesRead || st2.BytesRead != st1.BytesRead || st2.BytesDecompressed != st1.BytesDecompressed {
		t.Fatalf("warm pass did IO: cold %+v warm %+v", st1, st2)
	}
	if int(st2.PageCacheHits) != len(first) {
		t.Fatalf("PageCacheHits = %d, want %d", st2.PageCacheHits, len(first))
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("page %d differs between cached and uncached read", i)
		}
	}
}
