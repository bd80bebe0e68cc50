package obs

// IOStats counts the storage layer's work at every layer: a colstore
// reader's totals and the process-wide ones (colstore.IOStats), one pipeline
// stage's tap, a span's share, a flight record's delta. A span tree sums to
// its readers' delta in all but the reader-only PagesCoalesced, BytesInFlight,
// ReadCalls and IONanos and the tap-only WaitNanos and DecompressNanos.
type IOStats struct {
	PagesRead         int64 `json:"pagesRead"`         // fetched, verified and decompressed
	PagesPruned       int64 `json:"pagesPruned"`       // rejected from their zone map alone, never fetched
	PagesSkipped      int64 `json:"pagesSkipped"`      // no selected row fell in them, never fetched
	PagesCoalesced    int64 `json:"pagesCoalesced"`    // ReadAt calls saved: a run of k adjacent pages adds k-1
	BytesRead         int64 `json:"bytesRead"`         // handed back by ReadAt
	BytesDecompressed int64 `json:"bytesDecompressed"` // page bodies after decompression
	PrefetchHits      int64 `json:"prefetchHits"`      // fetch units the background prefetcher staged (or had in flight)
	PrefetchMisses    int64 `json:"prefetchMisses"`    // fetch units the consumer read itself
	PageCacheHits     int64 `json:"pageCacheHits"`     // bodies the shared page cache served: no other counter moves
	PageCacheMisses   int64 `json:"pageCacheMisses"`   // bodies read with a page cache attached
	BytesInFlight     int64 `json:"-"`                 // a gauge: prefetched bytes held in pooled buffers now
	ReadCalls         int64 `json:"readCalls"`         // device requests: reads issued to the file, a retried read counting once
	IONanos           int64 `json:"-"`                 // wall time inside ReadAt
	WaitNanos         int64 `json:"-"`                 // wall time stalled on an in-flight prefetch
	DecompressNanos   int64 `json:"-"`                 // wall time inside decompression
}

// IOCounter names the IOStats field of the same name, so a set of counters
// can be an array indexed like Fields.
type IOCounter int

const (
	PagesRead IOCounter = iota
	PagesPruned
	PagesSkipped
	PagesCoalesced
	BytesRead
	BytesDecompressed
	PrefetchHits
	PrefetchMisses
	PageCacheHits
	PageCacheMisses
	BytesInFlight
	ReadCalls
	IONanos
	WaitNanos
	DecompressNanos
	NumIOCounters
)

// Fields returns pointers to s's fields, indexed by IOCounter.
func (s *IOStats) Fields() [NumIOCounters]*int64 {
	return [...]*int64{&s.PagesRead, &s.PagesPruned, &s.PagesSkipped, &s.PagesCoalesced,
		&s.BytesRead, &s.BytesDecompressed, &s.PrefetchHits, &s.PrefetchMisses,
		&s.PageCacheHits, &s.PageCacheMisses, &s.BytesInFlight, &s.ReadCalls, &s.IONanos, &s.WaitNanos,
		&s.DecompressNanos}
}

// Add folds o into s.
func (s *IOStats) Add(o IOStats) {
	from := o.Fields()
	for k, p := range s.Fields() {
		*p += *from[k]
	}
}

// Sub returns s minus o: the delta between two snapshots.
func (s IOStats) Sub(o IOStats) IOStats {
	from := o.Fields()
	for k, p := range s.Fields() {
		*p -= *from[k]
	}
	return s
}
