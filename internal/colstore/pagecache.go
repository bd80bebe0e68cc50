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
// entries eagerly; anything missed ages out through eviction.
//
// The cache is sharded 16 ways by key hash so concurrent morsel workers
// on different pages rarely contend; each shard holds its slice of the
// byte budget with its own recency list. Bodies returned by Get are shared
// and must be treated as read-only, the same aliasing contract
// Chunk.PageBodyScratch already imposes.
//
// Insertion is scan-resistant (bimodal insertion, Qureshi et al., ISCA
// 2007): a hit moves its page to the most-recently-used end, but a new
// page enters at the least-recently-used end, except every bipPeriod-th
// insertion into a shard, which enters at the most-recently-used end. A
// cyclic scan of a table larger than the cache then keeps a stable set of
// pages resident and churns one slot per shard, where plain LRU would
// evict every page just before its next use; a new hot set still gets in,
// one page per shard through each periodic insertion and the rest through
// hits.
type PageCache struct {
	shards   [pcShards]pcShard
	perShard int64
	maxEntry int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
}

const (
	pcShardBits = 4
	pcShards    = 1 << pcShardBits
)

// bipPeriod is the bimodal insertion period: one new page in 32 enters
// a shard at the most-recently-used end. A shorter period lets a scan
// push out the resident set faster; a longer one slows how fast a new
// hot set, missing several pages per shard on each pass, takes over the
// shard. 32 is the period of the original study.
const bipPeriod = 32

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
	// inserts counts new pages; every bipPeriod-th enters at the
	// most-recently-used end.
	inserts uint64
	// Intrusive recency ring with a sentinel: head.next is most recent,
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

// shard stripes a chunk's pages over consecutive shards, from a start
// shard taken from the top bits of a multiplicative hash of (reader, row
// group, column). Chunks of one page still spread over every shard, and
// a scan fills each shard with the same share of every chunk, so the
// pages the shards keep resident make up whole chunks, whose fetch units
// the scheduler then drops.
func (k pageKey) shard() int {
	h := (k.reader*0x9E3779B97F4A7C15 ^ uint64(k.rg)<<32 ^ uint64(k.col)) * 0xBF58476D1CE4E5B9
	return int((h>>(64-pcShardBits) + uint64(k.page)) % pcShards)
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

// Put admits a copy of body under (reader, rg, col, page): it evicts
// least-recently-used entries until the body fits the shard's budget,
// then links the page at the least-recently-used end, or at the most-
// recently-used end on every bipPeriod-th insertion into the shard.
// Bodies larger than the per-entry admission bound are rejected: a page
// that would flush half a shard on its own is cheaper to re-decompress.
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
	for s.used+int64(len(owned)) > c.perShard {
		lru := s.head.prev
		if lru == &s.head {
			break
		}
		s.evict(lru)
		c.evictions.Add(1)
	}
	e := &pcEntry{key: k, body: owned}
	s.entries[k] = e
	s.used += int64(len(owned))
	if s.inserts++; s.inserts%bipPeriod == 0 {
		s.pushFront(e)
	} else {
		s.pushBack(e)
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

func (s *pcShard) pushBack(e *pcEntry) {
	e.prev = s.head.prev
	e.next = &s.head
	s.head.prev.next = e
	s.head.prev = e
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
