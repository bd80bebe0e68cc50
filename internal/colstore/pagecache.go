package colstore

import (
	"sync"
	"sync/atomic"
)

// PageCache is a byte-budgeted cache of decompressed page bodies, shared
// across readers. It caches the post-decompression, still-encoded page
// bytes — the representation every scan kernel and gather consumes — so
// a hot table is read and decompressed once per residency rather than
// once per query. That is the serving-layer half of the compressed-
// intermediate discipline: scans still run on encoded data; the cache
// only removes the repeated disk fetch and decompression in front of
// them.
//
// Keys carry the owning Reader's process-unique ID, which is the cache's
// epoch story: a table that is re-opened, re-loaded, or re-published by
// a shard flush gets a fresh Reader and therefore a fresh key space, so
// stale bodies can never serve a new epoch. Closing a reader drops its
// entries eagerly; anything missed ages out through LRU eviction.
//
// The cache is sharded 16 ways by key hash so concurrent morsel workers
// on different pages rarely contend; each shard holds its slice of the
// byte budget with its own LRU list. Bodies returned by Get are shared
// and must be treated as read-only, the same aliasing contract
// Chunk.PageBody already imposes.
type PageCache struct {
	shards   [pcShards]pcShard
	perShard int64
	maxEntry int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
}

const pcShards = 16

type pageKey struct {
	reader  uint64
	rg, col int32
	page    int32
}

type pcEntry struct {
	key        pageKey
	body       []byte
	prev, next *pcEntry
}

type pcShard struct {
	mu      sync.Mutex
	entries map[pageKey]*pcEntry
	used    int64
	// Intrusive LRU ring with a sentinel: head.next is most recent,
	// head.prev least recent.
	head pcEntry
}

// NewPageCache returns a cache bounded to roughly budget bytes of page
// bodies. Budgets below 64 KiB are rounded up so every shard can hold at
// least one typical page.
func NewPageCache(budget int64) *PageCache {
	if budget < 64<<10 {
		budget = 64 << 10
	}
	c := &PageCache{
		perShard: budget / pcShards,
		// One entry may not monopolise its shard: oversized bodies are
		// rejected rather than admitted-and-instantly-evicting-everything.
		maxEntry: budget / pcShards / 2,
	}
	if c.maxEntry < 4<<10 {
		c.maxEntry = 4 << 10
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make(map[pageKey]*pcEntry)
		s.head.next = &s.head
		s.head.prev = &s.head
	}
	return c
}

func (k pageKey) shard() int {
	h := k.reader*0x9E3779B97F4A7C15 ^
		uint64(k.rg)<<40 ^ uint64(k.col)<<20 ^ uint64(k.page)
	h ^= h >> 29
	return int(h % pcShards)
}

// Get returns the cached body for (reader, rg, col, page), promoting it
// to most-recently-used. The returned slice is shared: read-only.
func (c *PageCache) Get(reader uint64, rg, col, page int) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	k := pageKey{reader: reader, rg: int32(rg), col: int32(col), page: int32(page)}
	s := &c.shards[k.shard()]
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	body := e.body
	s.mu.Unlock()
	c.hits.Add(1)
	return body, true
}

// Contains reports whether the page is resident without promoting it —
// the prefetch scheduler uses this to avoid staging disk reads for pages
// the cache will serve anyway.
func (c *PageCache) Contains(reader uint64, rg, col, page int) bool {
	if c == nil {
		return false
	}
	k := pageKey{reader: reader, rg: int32(rg), col: int32(col), page: int32(page)}
	s := &c.shards[k.shard()]
	s.mu.Lock()
	_, ok := s.entries[k]
	s.mu.Unlock()
	return ok
}

// Put admits a copy of body under (reader, rg, col, page), evicting
// least-recently-used entries until the shard fits its budget. Bodies
// larger than the per-entry admission bound are rejected: a page that
// would flush half a shard on its own is cheaper to re-decompress.
func (c *PageCache) Put(reader uint64, rg, col, page int, body []byte) {
	if c == nil {
		return
	}
	if int64(len(body)) > c.maxEntry {
		c.rejected.Add(1)
		return
	}
	k := pageKey{reader: reader, rg: int32(rg), col: int32(col), page: int32(page)}
	s := &c.shards[k.shard()]
	owned := append(make([]byte, 0, len(body)), body...)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		// Concurrent fill of the same page: keep the resident body.
		s.unlink(e)
		s.pushFront(e)
		s.mu.Unlock()
		return
	}
	e := &pcEntry{key: k, body: owned}
	s.entries[k] = e
	s.pushFront(e)
	s.used += int64(len(owned))
	for s.used > c.perShard {
		lru := s.head.prev
		if lru == &s.head {
			break
		}
		s.evict(lru)
		c.evictions.Add(1)
	}
	s.mu.Unlock()
}

// InvalidateReader drops every entry owned by the given reader ID — the
// eager half of epoch invalidation, called when a reader closes (table
// reload, shard retirement).
func (c *PageCache) InvalidateReader(reader uint64) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.reader == reader {
				s.evict(e)
			}
		}
		s.mu.Unlock()
	}
}

// PageCacheStats is a point-in-time snapshot of the cache's counters and
// occupancy.
type PageCacheStats struct {
	Hits, Misses, Evictions, Rejected int64
	Bytes                             int64
	Entries                           int
}

// Stats snapshots the cache counters and current occupancy.
func (c *PageCache) Stats() PageCacheStats {
	if c == nil {
		return PageCacheStats{}
	}
	st := PageCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.used
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

func (s *pcShard) pushFront(e *pcEntry) {
	e.next = s.head.next
	e.prev = &s.head
	s.head.next.prev = e
	s.head.next = e
}

func (s *pcShard) unlink(e *pcEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *pcShard) evict(e *pcEntry) {
	s.unlink(e)
	delete(s.entries, e.key)
	s.used -= int64(len(e.body))
}
