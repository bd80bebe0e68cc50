package serve

import (
	"container/list"
	"sync"
)

// ResultCache is a byte-budgeted LRU of finished query responses keyed
// on everything an answer depends on (QueryRequest.cacheKey), the data
// epochs of the tables it reads included. An ingest that bumps an epoch
// therefore invalidates every cached result over that table implicitly:
// new queries form new keys and the stale entries age out.
type ResultCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List
	byKey  map[string]*list.Element

	hits, misses, evictions int64
}

type rcEntry struct {
	key  string
	size int64
	resp *QueryResponse
}

// NewResultCache builds a cache bounded to budget bytes; budget <= 0
// returns nil, and a nil cache is a valid always-miss cache.
func NewResultCache(budget int64) *ResultCache {
	if budget <= 0 {
		return nil
	}
	return &ResultCache{
		budget: budget,
		ll:     list.New(),
		byKey:  make(map[string]*list.Element),
	}
}

// Get returns the cached response for key, or nil.
func (c *ResultCache) Get(key string) *QueryResponse {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		resultCacheMisses.Inc()
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits++
	resultCacheHits.Inc()
	return el.Value.(*rcEntry).resp
}

// Put stores resp under key. Entries larger than half the budget are
// refused rather than wiping the whole cache for one giant rowid list or
// row set.
func (c *ResultCache) Put(key string, resp *QueryResponse) {
	if c == nil || resp == nil {
		return
	}
	size := responseSize(resp)
	if size > c.budget/2 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		old := el.Value.(*rcEntry)
		c.bytes += size - old.size
		old.size, old.resp = size, resp
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&rcEntry{key: key, size: size, resp: resp})
		c.bytes += size
	}
	for c.bytes > c.budget {
		el := c.ll.Back()
		if el == nil {
			break
		}
		ent := c.ll.Remove(el).(*rcEntry)
		delete(c.byKey, ent.key)
		c.bytes -= ent.size
		c.evictions++
	}
}

// ResultCacheStats is a point-in-time snapshot.
type ResultCacheStats struct {
	Hits, Misses, Evictions int64
	Bytes                   int64
	Entries                 int
}

// Stats snapshots the cache; zero value on a nil cache.
func (c *ResultCache) Stats() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Bytes: c.bytes, Entries: c.ll.Len(),
	}
}

// responseSize approximates a response's retained footprint: row ids at
// 8 bytes, group and column names at their length plus a header, and a
// row set per cell — an interface holding its boxed value — plus its
// string bytes.
func responseSize(r *QueryResponse) int64 {
	s := int64(128)
	s += int64(len(r.RowIDs)) * 8
	for k := range r.Groups {
		s += int64(len(k)) + 24
	}
	for _, c := range r.Columns {
		s += int64(len(c)) + 16
	}
	for _, row := range r.Rows {
		s += 24 + int64(len(row))*24
		for _, v := range row {
			if str, ok := v.(string); ok {
				s += int64(len(str))
			}
		}
	}
	return s
}
