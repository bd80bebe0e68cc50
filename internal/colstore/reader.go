package colstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/encoding"
	"codecdb/internal/vfs"
	"codecdb/internal/xcompress"
)

// readAttempts bounds the retry-on-transient-read policy: a failed ReadAt
// is retried this many times in total before the error is reported, which
// absorbs flaky-disk and network-filesystem hiccups without masking a
// persistent failure.
const readAttempts = 3

// Reader opens a CodecDB column file and serves decoded values, selected
// (data-skipping) reads, raw packed pages for in-situ scans, and global
// dictionaries. A Reader is safe for concurrent use: page reads go through
// ReadAt and the dictionary cache is mutex-guarded.
//
// Every page and dictionary blob is verified against its CRC32-C checksum
// lazily, on first touch; a mismatch surfaces as a *CorruptionError naming
// the file, column, row group, and page.
type Reader struct {
	f    vfs.File
	path string
	meta *FileMeta

	// mu guards the dictionary cache. Reads vastly outnumber the one
	// decode per dictionary group, and concurrent morsel workers all
	// consult the same dict for predicate rewrites, so lookups take the
	// read lock only.
	mu       sync.RWMutex
	intDicts map[string][]int64
	strDicts map[string][][]byte

	// io instruments the page-level data skipping with lock-free atomic
	// adds on the scan hot path; the Fig 8 IO-vs-CPU breakdown reads it.
	// Pruned pages were rejected from their zone map alone and never
	// fetched; skipped pages were fetched but had no selected rows.
	// statsMu serialises Stats against ResetStats so a snapshot can never
	// observe a half-applied reset (e.g. pruned zeroed, skipped not yet).
	io      ioCounters
	statsMu sync.Mutex

	// noPrune disables zone-map consultation (testing hook).
	noPrune atomic.Bool

	// id is this reader's process-unique identity — the epoch token the
	// shared page cache keys on, so a re-opened table can never be served
	// stale bodies. cache, when set, serves decompressed page bodies
	// across queries (and across concurrent queries in a serving wave).
	id    uint64
	cache *PageCache
}

// readerIDs hands every opened Reader a process-unique identity.
var readerIDs atomic.Uint64

// ioCounters are the reader's atomic IO instrumentation counters.
// Increments need no lock; consistent multi-field snapshots are taken
// under Reader.statsMu.
type ioCounters struct {
	pagesRead         atomic.Int64
	pagesPruned       atomic.Int64
	pagesSkipped      atomic.Int64
	bytesRead         atomic.Int64
	bytesDecompressed atomic.Int64
	ioNanos           atomic.Int64
	pagesCoalesced    atomic.Int64
	prefetchHits      atomic.Int64
	prefetchMisses    atomic.Int64
	bytesInFlight     atomic.Int64 // gauge, not a counter: live prefetch bytes
	pageCacheHits     atomic.Int64
	pageCacheMisses   atomic.Int64
}

// IOStats is a snapshot of a Reader's IO instrumentation.
type IOStats struct {
	// PagesRead counts pages fetched, verified, and decompressed.
	PagesRead int64
	// PagesPruned counts pages rejected from their zone map alone —
	// never read, never checksummed, never decompressed.
	PagesPruned int64
	// PagesSkipped counts pages fetched (or considered for fetch by row
	// selection) and then skipped because no selected row fell in them.
	PagesSkipped int64
	// BytesRead is total bytes handed back by ReadAt.
	BytesRead int64
	// BytesDecompressed is total page-body bytes after decompression
	// (equal to BytesRead minus framing for uncompressed columns).
	BytesDecompressed int64
	// IONanos is wall time spent inside ReadAt.
	IONanos int64
	// PagesCoalesced counts ReadAt calls saved by merging adjacent
	// selected pages into one fetch: a coalesced run of k pages adds k-1.
	PagesCoalesced int64
	// PrefetchHits counts fetch units a consumer found already fetched
	// (or in flight) by the background prefetcher; PrefetchMisses counts
	// units the consumer had to fetch synchronously itself.
	PrefetchHits   int64
	PrefetchMisses int64
	// BytesInFlight is a gauge of prefetched-but-unreleased bytes held in
	// pooled buffers right now; it returns to zero when every in-flight
	// PageFetcher closes.
	BytesInFlight int64
	// PageCacheHits counts page bodies served from the shared page cache
	// — no read, no checksum, no decompression (and therefore no bump of
	// PagesRead/BytesRead/BytesDecompressed). PageCacheMisses counts
	// bodies that went to disk with a cache attached.
	PageCacheHits   int64
	PageCacheMisses int64
}

// Add folds another snapshot's counters into s (summing a table's
// readers).
func (s *IOStats) Add(o IOStats) {
	s.PagesRead += o.PagesRead
	s.PagesPruned += o.PagesPruned
	s.PagesSkipped += o.PagesSkipped
	s.BytesRead += o.BytesRead
	s.BytesDecompressed += o.BytesDecompressed
	s.IONanos += o.IONanos
	s.PagesCoalesced += o.PagesCoalesced
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchMisses += o.PrefetchMisses
	s.BytesInFlight += o.BytesInFlight
	s.PageCacheHits += o.PageCacheHits
	s.PageCacheMisses += o.PageCacheMisses
}

// Stats returns a snapshot of the reader's IO instrumentation. The
// snapshot is consistent with respect to ResetStats: a concurrent reset
// either precedes the whole snapshot or follows it, never tears it.
func (r *Reader) Stats() IOStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return IOStats{
		PagesRead:         r.io.pagesRead.Load(),
		PagesPruned:       r.io.pagesPruned.Load(),
		PagesSkipped:      r.io.pagesSkipped.Load(),
		BytesRead:         r.io.bytesRead.Load(),
		BytesDecompressed: r.io.bytesDecompressed.Load(),
		IONanos:           r.io.ioNanos.Load(),
		PagesCoalesced:    r.io.pagesCoalesced.Load(),
		PrefetchHits:      r.io.prefetchHits.Load(),
		PrefetchMisses:    r.io.prefetchMisses.Load(),
		BytesInFlight:     r.io.bytesInFlight.Load(),
		PageCacheHits:     r.io.pageCacheHits.Load(),
		PageCacheMisses:   r.io.pageCacheMisses.Load(),
	}
}

// ResetStats zeroes the IO instrumentation counters. BytesInFlight is a
// live gauge owned by any active PageFetcher, not a counter, so a reset
// leaves it alone.
func (r *Reader) ResetStats() {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	r.io.pagesRead.Store(0)
	r.io.pagesPruned.Store(0)
	r.io.pagesSkipped.Store(0)
	r.io.bytesRead.Store(0)
	r.io.bytesDecompressed.Store(0)
	r.io.ioNanos.Store(0)
	r.io.pagesCoalesced.Store(0)
	r.io.prefetchHits.Store(0)
	r.io.prefetchMisses.Store(0)
	r.io.pageCacheHits.Store(0)
	r.io.pageCacheMisses.Store(0)
}

// SetPagePruning toggles zone-map page pruning; pruning is on by default.
// The property tests use this to compare pruned against unpruned scans on
// identical files.
func (r *Reader) SetPagePruning(on bool) {
	r.noPrune.Store(!on)
}

// Open opens the file at path and parses the footer.
func Open(path string) (*Reader, error) { return OpenFS(vfs.OS(), path) }

// OpenFS is Open over an explicit filesystem — the seam the
// fault-injection tests use. It verifies the footer checksum here and
// page/dictionary checksums lazily, on first touch; a file that is not
// "CDB2"-framed with a CurrentFormat footer is ErrFormat.
func OpenFS(fsys vfs.FS, path string) (*Reader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := openFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func openFile(f vfs.File, path string) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	// Smallest possible file: head magic + tail (u32 len, u32 crc, magic).
	const tailLen = 8 + 4
	if size < int64(len(MagicV2)+tailLen) {
		return nil, ErrFormat
	}
	head := make([]byte, len(MagicV2))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, size-tailLen); err != nil {
		return nil, err
	}
	if string(head) != string(MagicV2) || string(tail[8:]) != string(MagicV2) {
		return nil, ErrFormat
	}
	footerLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	footerEnd := size - tailLen // file offset one past the footer bytes
	if footerLen <= 0 || footerLen > footerEnd-int64(len(MagicV2)) {
		return nil, ErrFormat
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, footerEnd-footerLen); err != nil {
		return nil, err
	}
	if Checksum(footer) != binary.LittleEndian.Uint32(tail[4:8]) {
		return nil, &CorruptionError{Path: path, RowGroup: -1, Page: -1,
			Detail: "footer checksum mismatch"}
	}
	meta, err := unmarshalMeta(footer)
	if err != nil {
		return nil, err
	}
	if meta.Version != CurrentFormat {
		return nil, fmt.Errorf("colstore: %s: unsupported format version %d: %w",
			path, meta.Version, ErrFormat)
	}
	if err := validateMeta(meta, size); err != nil {
		return nil, err
	}
	return &Reader{f: f, path: path, meta: meta, id: readerIDs.Add(1),
		intDicts: map[string][]int64{}, strDicts: map[string][][]byte{}}, nil
}

// ID returns the reader's process-unique identity. IDs are never reused,
// so (ID, row group, column, page) names a page's content for as long as
// the process lives — the page cache's key, and the epoch token static
// tables report.
func (r *Reader) ID() uint64 { return r.id }

// SetPageCache attaches a shared page cache: pageBody consults it before
// reading, and fills it after every verified decompression. A nil cache
// (the default) leaves the read path untouched.
func (r *Reader) SetPageCache(c *PageCache) { r.cache = c }

// PageCache returns the attached cache, or nil.
func (r *Reader) PageCache() *PageCache { return r.cache }

// validateMeta rejects structurally inconsistent footers (wrong chunk
// counts, page or dictionary extents outside the file) so that a corrupt
// file fails at Open rather than panicking mid-query.
func validateMeta(m *FileMeta, fileSize int64) error {
	nCols := len(m.Schema.Columns)
	if nCols == 0 || m.NumRows < 0 {
		return ErrFormat
	}
	var total int64
	for _, rg := range m.RowGroups {
		if rg.NumRows < 0 || len(rg.Chunks) != nCols {
			return ErrFormat
		}
		total += rg.NumRows
		for _, ch := range rg.Chunks {
			var rows int64
			for _, p := range ch.Pages {
				if p.Offset < 0 || p.CompressedSize < 0 || p.NumValues < 0 ||
					p.Offset+int64(p.CompressedSize) > fileSize {
					return ErrFormat
				}
				if p.FirstRow != rows {
					return ErrFormat
				}
				if st := p.Stats; st != nil {
					if st.Min > st.Max || st.MinStr > st.MaxStr ||
						st.Distinct < 0 || st.Distinct > p.NumValues {
						return ErrFormat
					}
				}
				rows += int64(p.NumValues)
			}
			if rows != rg.NumRows {
				return ErrFormat
			}
		}
	}
	if total != m.NumRows {
		return ErrFormat
	}
	for _, d := range m.Dicts {
		if d.Offset < 0 || d.Size < 0 || d.Offset+int64(d.Size) > fileSize ||
			d.KeyWidth == 0 || d.KeyWidth > 64 || d.NumEntries < 0 {
			return ErrFormat
		}
	}
	return nil
}

// Close releases the underlying file and eagerly drops the reader's
// entries from the attached page cache (the reader ID is never reused,
// so this is an optimisation, not a correctness requirement).
func (r *Reader) Close() error {
	r.cache.InvalidateReader(r.id)
	return r.f.Close()
}

// Meta returns the parsed footer.
func (r *Reader) Meta() *FileMeta { return r.meta }

// Schema returns the file schema.
func (r *Reader) Schema() *Schema { return &r.meta.Schema }

// NumRows returns the total row count.
func (r *Reader) NumRows() int64 { return r.meta.NumRows }

// NumRowGroups returns the number of row groups (data blocks).
func (r *Reader) NumRowGroups() int { return len(r.meta.RowGroups) }

// RowGroupRows returns the row count of group rg.
func (r *Reader) RowGroupRows(rg int) int { return int(r.meta.RowGroups[rg].NumRows) }

// ColumnBytes returns the total stored (compressed) page bytes of column
// col across all row groups — the I/O a full scan of the column would pay,
// available from the footer alone. The predicate planner uses it as the
// cost denominator when ordering conjuncts.
func (r *Reader) ColumnBytes(col int) int64 {
	var total int64
	for rg := range r.meta.RowGroups {
		for _, p := range r.meta.RowGroups[rg].Chunks[col].Pages {
			total += int64(p.CompressedSize)
		}
	}
	return total
}

// Column returns the schema entry for the named column.
func (r *Reader) Column(name string) (int, *Column, error) {
	i := r.meta.Schema.ColumnIndex(name)
	if i < 0 {
		return 0, nil, fmt.Errorf("colstore: no column %q", name)
	}
	return i, &r.meta.Schema.Columns[i], nil
}

// IntDict returns the global order-preserving dictionary for an
// int-typed dictionary column.
func (r *Reader) IntDict(col int) ([]int64, error) {
	group, dm, err := r.dictMetaFor(col, TypeInt64)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	cached := r.intDicts[group]
	r.mu.RUnlock()
	if cached != nil {
		return cached, nil
	}
	buf, err := r.readDictBlob(group, dm)
	if err != nil {
		return nil, err
	}
	entries, err := encoding.DeltaInt{}.Decode(buf)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.intDicts[group] = entries
	r.mu.Unlock()
	return entries, nil
}

// StrDict returns the global order-preserving dictionary for a
// string-typed dictionary column.
func (r *Reader) StrDict(col int) ([][]byte, error) {
	group, dm, err := r.dictMetaFor(col, TypeString)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	cached := r.strDicts[group]
	r.mu.RUnlock()
	if cached != nil {
		return cached, nil
	}
	buf, err := r.readDictBlob(group, dm)
	if err != nil {
		return nil, err
	}
	entries, err := encoding.DeltaLengthString{}.Decode(nil, buf)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.strDicts[group] = entries
	r.mu.Unlock()
	return entries, nil
}

// KeyWidth returns the dictionary key bit width for a dict column.
func (r *Reader) KeyWidth(col int) (uint, error) {
	c := r.meta.Schema.Columns[col]
	dm, ok := r.meta.Dicts[dictGroupOf(c, col)]
	if !ok {
		return 0, fmt.Errorf("colstore: column %q has no dictionary", c.Name)
	}
	return uint(dm.KeyWidth), nil
}

// SharedDict reports whether two columns use the same global dictionary —
// the precondition for the two-column packed comparison (§5.3).
func (r *Reader) SharedDict(colA, colB int) bool {
	a := r.meta.Schema.Columns[colA]
	b := r.meta.Schema.Columns[colB]
	if !usesDict(a.Encoding) || !usesDict(b.Encoding) {
		return false
	}
	return dictGroupOf(a, colA) == dictGroupOf(b, colB)
}

func (r *Reader) dictMetaFor(col int, want Type) (string, DictMeta, error) {
	c := r.meta.Schema.Columns[col]
	if c.Type != want {
		return "", DictMeta{}, fmt.Errorf("colstore: column %q is %v", c.Name, c.Type)
	}
	group := dictGroupOf(c, col)
	dm, ok := r.meta.Dicts[group]
	if !ok {
		return "", DictMeta{}, fmt.Errorf("colstore: column %q has no dictionary", c.Name)
	}
	return group, dm, nil
}

// readAtBuf is readAtRaw that also books the bytes read; it returns buf.
func (r *Reader) readAtBuf(buf []byte, off int64) ([]byte, error) {
	if err := r.readAtRaw(buf, off); err != nil {
		return nil, err
	}
	r.io.bytesRead.Add(int64(len(buf)))
	globalIO.bytesRead.Add(int64(len(buf)))
	return buf, nil
}

// readAtRaw reads len(buf) bytes at off with the bounded
// retry-on-transient-read policy: up to readAttempts attempts, so one
// flaky read (short read, I/O error) does not fail the query, while a
// persistent failure still surfaces after the budget is spent. It books
// only the ReadAt wall time: the prefetcher calls it directly and books
// bytes at serve time, page by page, so gap bytes a coalesced run dragged
// in but no consumer ever touched never inflate BytesRead — the per-span
// IO attribution keeps summing exactly to the reader's delta.
func (r *Reader) readAtRaw(buf []byte, off int64) error {
	start := time.Now()
	var err error
	for attempt := 0; attempt < readAttempts; attempt++ {
		if _, err = r.f.ReadAt(buf, off); err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("colstore: %s: read %d bytes at %d failed after %d attempts: %w",
			r.path, len(buf), off, readAttempts, err)
	}
	nanos := time.Since(start).Nanoseconds()
	r.io.ioNanos.Add(nanos)
	globalIO.ioNanos.Add(nanos)
	return nil
}

// readDictBlob reads and verifies one dictionary blob. A checksum mismatch
// is retried with one fresh read (the flip may have happened in transit)
// before being reported as corruption.
func (r *Reader) readDictBlob(group string, dm DictMeta) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		buf, err := r.readAtBuf(make([]byte, dm.Size), dm.Offset)
		if err != nil {
			return nil, err
		}
		if Checksum(buf) == dm.Crc32C {
			return buf, nil
		}
		if attempt > 0 {
			return nil, &CorruptionError{Path: r.path, Column: group, RowGroup: -1, Page: -1,
				Detail: "dictionary checksum mismatch"}
		}
	}
}

// Verify scrubs the whole file: every dictionary blob and every data page
// is read and checked against its checksum. It returns the first problem
// found — a *CorruptionError for checksum mismatches — or nil if the file
// is clean.
func (r *Reader) Verify(ctx context.Context) error {
	for group, dm := range r.meta.Dicts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := r.readDictBlob(group, dm); err != nil {
			return err
		}
	}
	for rg := range r.meta.RowGroups {
		for ci := range r.meta.RowGroups[rg].Chunks {
			chunk := r.Chunk(rg, ci)
			for p := range chunk.meta.Pages {
				if err := ctx.Err(); err != nil {
					return err
				}
				if _, err := chunk.rawPage(p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Chunk returns a handle on column col within row group rg.
func (r *Reader) Chunk(rg, col int) *Chunk {
	return &Chunk{
		r: r, rg: rg, col: col,
		meta:   &r.meta.RowGroups[rg].Chunks[col],
		column: r.meta.Schema.Columns[col],
		rows:   int(r.meta.RowGroups[rg].NumRows),
	}
}

// Chunk reads one column chunk (column × row group).
type Chunk struct {
	r      *Reader
	rg     int
	col    int
	meta   *ChunkMeta
	column Column
	rows   int
	tap    *IOTap
	// fetch serves page bytes through the scan's PageFetcher; funit caches
	// the unit that served the last page.
	fetch *PageFetcher
	funit *fetchUnit
	// The pages the caller declared it will read — an ascending list
	// (Want), the pages holding a row of a selection (gathers), or every
	// page (a gather without a selection, PackedPages): a miss demand-reads
	// the ones still ahead.
	want    []int
	wantSel *bitutil.Bitmap
	wantAll bool
}

// IOTap is a per-caller tally of the chunk-level IO counters. A tapped
// chunk mirrors every counter bump into the tap alongside the reader's
// atomic totals, letting a single-threaded caller (one pipeline stage on
// one worker) attribute IO without any barrier or snapshot: the tap is
// plain fields, owned by exactly one goroutine at a time.
type IOTap struct {
	PagesRead         int64
	PagesPruned       int64
	PagesSkipped      int64
	BytesRead         int64
	BytesDecompressed int64
	// PrefetchHits/PrefetchMisses attribute fetch units this stage
	// consumed; WaitNanos is wall time the stage stalled on an in-flight
	// background read, DecompressNanos wall time inside decompression —
	// together they split stage time into wait vs decompress vs scan.
	PrefetchHits    int64
	PrefetchMisses  int64
	WaitNanos       int64
	DecompressNanos int64
	// PageCacheHits/PageCacheMisses attribute shared-page-cache lookups
	// this stage made; a hit means the stage's other IO counters did not
	// move for that page.
	PageCacheHits   int64
	PageCacheMisses int64
}

// Add folds another tap's counts into t.
func (t *IOTap) Add(o *IOTap) {
	t.PagesRead += o.PagesRead
	t.PagesPruned += o.PagesPruned
	t.PagesSkipped += o.PagesSkipped
	t.BytesRead += o.BytesRead
	t.BytesDecompressed += o.BytesDecompressed
	t.PrefetchHits += o.PrefetchHits
	t.PrefetchMisses += o.PrefetchMisses
	t.WaitNanos += o.WaitNanos
	t.DecompressNanos += o.DecompressNanos
	t.PageCacheHits += o.PageCacheHits
	t.PageCacheMisses += o.PageCacheMisses
}

// Tap attaches t to the chunk and returns the chunk for chaining. A nil
// tap (the untraced path) keeps every hot-path bump a single predictable
// branch.
func (c *Chunk) Tap(t *IOTap) *Chunk {
	c.tap = t
	return c
}

// Fetch attaches the scan's page fetcher to the chunk and returns the
// chunk for chaining. A nil fetcher keeps the synchronous read path
// untouched.
func (c *Chunk) Fetch(f *PageFetcher) *Chunk {
	c.fetch = f
	return c
}

// Want declares the pages, ascending, the caller is about to read one by
// one (PageBodyScratch, PackedPageAt): with a fetcher attached, the first
// of them that is neither staged nor cached is read together with every
// later one in one coalesced request. The gathers and PackedPages declare
// their own pages. The slice must stay unchanged while in use.
func (c *Chunk) Want(pages []int) *Chunk {
	c.declare(pages, nil, false)
	return c
}

// declare records, in one of its three forms, the pages the caller will
// read (see Want).
func (c *Chunk) declare(pages []int, sel *bitutil.Bitmap, all bool) {
	c.want, c.wantSel, c.wantAll = pages, sel, all
}

// nextWanted returns the first page at or after p the caller declared it
// will read, or -1.
func (c *Chunk) nextWanted(p int) int {
	n := len(c.meta.Pages)
	switch {
	case p >= n:
	case c.want != nil:
		if i := sort.SearchInts(c.want, p); i < len(c.want) {
			return c.want[i]
		}
	case c.wantSel != nil:
		row := c.wantSel.NextSet(int(c.meta.Pages[p].FirstRow))
		if row < 0 {
			return -1
		}
		for ; p < n; p++ {
			if _, last := c.pageRange(p); row < last {
				return p
			}
		}
	case c.wantAll:
		return p
	}
	return -1
}

// Rows returns the chunk's row count.
func (c *Chunk) Rows() int { return c.rows }

// Stats returns the chunk statistics.
func (c *Chunk) Stats() ChunkStats { return c.meta.Stats }

// Encoding returns the column's encoding scheme.
func (c *Chunk) Encoding() encoding.Kind { return c.column.Encoding }

// NumPages returns the number of data pages in the chunk.
func (c *Chunk) NumPages() int { return len(c.meta.Pages) }

// PageValues returns the row count of page p.
func (c *Chunk) PageValues(p int) int { return int(c.meta.Pages[p].NumValues) }

// PageBody reads and decompresses page p, exposing the encoded page bytes
// to encoding-aware operators.
func (c *Chunk) PageBody(p int) ([]byte, error) { return c.pageBody(p) }

// PageBodyScratch is PageBody through pooled scratch buffers: the returned
// bytes alias the scratch and are valid only until its next use. Decoded
// values that alias the body (string decoding) must not use this path.
func (c *Chunk) PageBodyScratch(p int, sc *arena.Scratch) ([]byte, error) {
	return c.pageBodyScratch(p, sc)
}

// PageRowRange returns the chunk-relative [first, last) row interval of
// page p — available without fetching the page, so pruning decisions can
// place constant results before any I/O happens.
func (c *Chunk) PageRowRange(p int) (first, last int) { return c.pageRange(p) }

// PageStatsOf returns page p's packed-domain zone map, or nil when the
// page carries none (float and empty pages) or pruning has been disabled
// on the reader. A nil result means "cannot prune".
func (c *Chunk) PageStatsOf(p int) *PageStats {
	if c.r.noPrune.Load() {
		return nil
	}
	return c.meta.Pages[p].Stats
}

// MarkPruned records that one page was rejected from its zone map alone —
// the page is never fetched, verified, or decompressed.
func (c *Chunk) MarkPruned() {
	c.r.io.pagesPruned.Add(1)
	globalIO.pagesPruned.Add(1)
	if c.tap != nil {
		c.tap.PagesPruned++
	}
}

// MarkSkipped records n pages bypassed because an earlier predicate's
// selection already rules out every row they hold — the selection-pushdown
// counterpart of the row-ID skipping the gather paths count through the
// same statistic.
func (c *Chunk) MarkSkipped(n int) {
	c.r.io.pagesSkipped.Add(int64(n))
	globalIO.pagesSkipped.Add(int64(n))
	if c.tap != nil {
		c.tap.PagesSkipped += int64(n)
	}
}

// PageSelected reports whether the chunk-relative selection sel keeps any
// row of page p. Pages that lost every row to earlier predicates need not
// be fetched, verified, or decompressed.
func (c *Chunk) PageSelected(sel *bitutil.Bitmap, p int) bool {
	first, last := c.pageRange(p)
	next := sel.NextSet(first)
	return next >= 0 && next < last
}

// rawPage reads the stored bytes of page p and verifies the page CRC. A
// mismatch is retried with one fresh read before being reported as a
// *CorruptionError naming the exact page.
func (c *Chunk) rawPage(p int) ([]byte, error) {
	raw, _, err := c.rawPageBuf(p, nil)
	return raw, err
}

// rawPageBuf is rawPage into pooled scratch storage when sc is non-nil.
// With a fetcher attached the page is served zero-copy from a coalesced
// run buffer (staged reports it: the slice stays valid until the fetcher
// releases the row group, which outlives any page-scoped use, but not
// indefinitely); a CRC mismatch on staged bytes falls through to exactly
// one fresh synchronous read before the corruption verdict, mirroring the
// retry-once policy of the plain path.
func (c *Chunk) rawPageBuf(p int, sc *arena.Scratch) (raw []byte, staged bool, err error) {
	pm := c.meta.Pages[p]
	attempt := 0
	if c.fetch != nil {
		if raw, ok := c.fetch.page(c, p); ok {
			if Checksum(raw) == pm.Crc32C {
				return raw, true, nil
			}
			attempt = 1
		}
	}
	for ; ; attempt++ {
		var buf []byte
		if sc != nil {
			buf = sc.Raw(int(pm.CompressedSize))
		} else {
			buf = make([]byte, pm.CompressedSize)
		}
		raw, err := c.r.readAtBuf(buf, pm.Offset)
		if err != nil {
			return nil, false, err
		}
		if c.tap != nil {
			// Counted per attempt, matching the reader's own bytesRead (a
			// checksum-retry re-read is real IO on both tallies).
			c.tap.BytesRead += int64(len(raw))
		}
		if Checksum(raw) == pm.Crc32C {
			return raw, false, nil
		}
		if attempt > 0 {
			return nil, false, &CorruptionError{Path: c.r.path, Column: c.column.Name,
				RowGroup: c.rg, Page: p, Detail: "page checksum mismatch"}
		}
	}
}

// pageBody reads, verifies, and decompresses page p.
func (c *Chunk) pageBody(p int) ([]byte, error) { return c.pageBodyScratch(p, nil) }

// pageBodyScratch is pageBody through pooled scratch buffers: with a
// non-nil sc the raw bytes land in sc.Raw and the decompressed body in
// sc.Body, so the steady state allocates nothing. The returned body
// aliases the scratch and is valid until the scratch's next use; decoded
// values that alias the body (string decoding) must not use this path.
func (c *Chunk) pageBodyScratch(p int, sc *arena.Scratch) ([]byte, error) {
	if c.r.cache != nil {
		if body, ok := c.r.cache.Get(c.r.id, c.rg, c.col, p); ok {
			// Served from the shared cache: no read, no checksum, no
			// decompression — PagesRead/BytesRead/BytesDecompressed stay
			// untouched on both the reader and the tap, so the span-IO ≡
			// IOStats-delta discipline holds with the cache on. The body
			// is shared and read-only; it does not enter the scratch.
			c.r.io.pageCacheHits.Add(1)
			globalIO.pageCacheHits.Add(1)
			if c.tap != nil {
				c.tap.PageCacheHits++
			}
			return body, nil
		}
		c.r.io.pageCacheMisses.Add(1)
		globalIO.pageCacheMisses.Add(1)
		if c.tap != nil {
			c.tap.PageCacheMisses++
		}
	}
	raw, staged, err := c.rawPageBuf(p, sc)
	if err != nil {
		return nil, err
	}
	c.r.io.pagesRead.Add(1)
	globalIO.pagesRead.Add(1)
	if c.tap != nil {
		c.tap.PagesRead++
	}
	comp, err := xcompress.For(c.column.Compression)
	if err != nil {
		return nil, err
	}
	var decompStart time.Time
	if c.tap != nil {
		decompStart = time.Now()
	}
	var body []byte
	if sc != nil {
		body, err = comp.DecompressInto(sc.Body(int(c.meta.Pages[p].UncompressedSize)), raw)
		// Identity codecs return the raw buffer itself; keeping that as the
		// scratch body would alias the two buffer families.
		if err == nil && (len(body) == 0 || len(raw) == 0 || &body[0] != &raw[0]) {
			sc.KeepBody(body)
		}
	} else {
		body, err = comp.Decompress(raw)
		// Without a scratch the caller may alias the body indefinitely;
		// an identity codec returns staged bytes the fetcher will recycle.
		if err == nil && staged && len(body) > 0 && len(raw) > 0 && &body[0] == &raw[0] {
			body = append([]byte(nil), body...)
		}
	}
	if c.tap != nil {
		c.tap.DecompressNanos += time.Since(decompStart).Nanoseconds()
	}
	if err != nil {
		return nil, err
	}
	if len(body) != int(c.meta.Pages[p].UncompressedSize) {
		return nil, &CorruptionError{Path: c.r.path, Column: c.column.Name,
			RowGroup: c.rg, Page: p, Detail: fmt.Sprintf(
				"decompressed to %d bytes, footer says %d", len(body), c.meta.Pages[p].UncompressedSize)}
	}
	c.r.io.bytesDecompressed.Add(int64(len(body)))
	globalIO.bytesDecompressed.Add(int64(len(body)))
	if c.tap != nil {
		c.tap.BytesDecompressed += int64(len(body))
	}
	if c.r.cache != nil {
		c.r.cache.Put(c.r.id, c.rg, c.col, p, body)
	}
	return body, nil
}

func (c *Chunk) skipPage() {
	c.r.io.pagesSkipped.Add(1)
	globalIO.pagesSkipped.Add(1)
	if c.tap != nil {
		c.tap.PagesSkipped++
	}
}

// PackedPage exposes one page's packed-key region for in-situ scanning.
type PackedPage struct {
	Data     []byte // packed bits, LSB-first
	N        int    // entries in this page
	Width    uint   // bits per entry
	FirstRow int    // chunk-relative row of the first entry
	Zigzag   bool   // entries are zigzag-mapped plain integers, not dict keys
}

// PackedScannable reports whether the chunk's pages have an in-situ
// scannable packed representation (PackedPageAt will succeed).
func (c *Chunk) PackedScannable() bool {
	return usesDict(c.column.Encoding) ||
		(c.column.Encoding == encoding.KindBitPacked && c.column.Type == TypeInt64)
}

// PackedPageAt fetches, verifies, and decompresses exactly one page and
// exposes its packed-key region for in-situ scanning. With a non-nil
// scratch the page travels through pooled buffers and the returned
// PackedPage.Data aliases the scratch — valid only until its next use.
// This is the page-at-a-time fetch the zone-map pruning path uses: pruned
// pages are simply never passed to it.
func (c *Chunk) PackedPageAt(p int, sc *arena.Scratch) (PackedPage, error) {
	switch {
	case c.column.Encoding == encoding.KindDict:
		body, err := c.pageBodyScratch(p, sc)
		if err != nil {
			return PackedPage{}, err
		}
		width, n, packed, err := decodePackedKeys(body)
		if err != nil {
			return PackedPage{}, err
		}
		return PackedPage{Data: packed, N: n, Width: width,
			FirstRow: int(c.meta.Pages[p].FirstRow)}, nil
	case c.column.Encoding == encoding.KindDictRLE:
		// RLE-keyed pages have no packed region on disk: expand the runs
		// and pack the keys at the dictionary's width, so every packed
		// kernel evaluates them like a DICTIONARY page.
		body, err := c.pageBodyScratch(p, sc)
		if err != nil {
			return PackedPage{}, err
		}
		keys, err := (encoding.RLEInt{}).Decode(body)
		if err != nil {
			return PackedPage{}, err
		}
		width, err := c.r.KeyWidth(c.col)
		if err != nil {
			return PackedPage{}, err
		}
		w := bitutil.NewWriter()
		for _, k := range keys {
			w.WriteBits(uint64(k), width)
		}
		return PackedPage{Data: w.Bytes(), N: len(keys), Width: width,
			FirstRow: int(c.meta.Pages[p].FirstRow)}, nil
	case c.column.Encoding == encoding.KindBitPacked && c.column.Type == TypeInt64:
		body, err := c.pageBodyScratch(p, sc)
		if err != nil {
			return PackedPage{}, err
		}
		n, width, packed, err := encoding.InspectBitPacked(body)
		if err != nil {
			return PackedPage{}, err
		}
		return PackedPage{Data: packed, N: n, Width: width,
			FirstRow: int(c.meta.Pages[p].FirstRow), Zigzag: true}, nil
	}
	return PackedPage{}, fmt.Errorf("colstore: %v pages are not packed-scannable", c.column.Encoding)
}

// PackedPages returns the in-situ scannable pages of a dictionary or
// bit-packed column chunk. It errors for encodings without a packed
// representation (the caller then falls back to decode-then-filter).
func (c *Chunk) PackedPages() ([]PackedPage, error) {
	if !c.PackedScannable() {
		return nil, fmt.Errorf("colstore: %v pages are not packed-scannable", c.column.Encoding)
	}
	c.declare(nil, nil, true)
	out := make([]PackedPage, len(c.meta.Pages))
	for p := range c.meta.Pages {
		pp, err := c.PackedPageAt(p, nil)
		if err != nil {
			return nil, err
		}
		out[p] = pp
	}
	return out, nil
}

// Keys decodes the dictionary keys of a dict-encoded chunk.
func (c *Chunk) Keys() ([]int64, error) { return c.GatherKeys(nil, nil) }

// Ints decodes the whole chunk of an integer column.
func (c *Chunk) Ints() ([]int64, error) { return c.GatherInts(nil, nil) }

// Floats decodes the whole chunk of a float column.
func (c *Chunk) Floats() ([]float64, error) { return c.GatherFloats(nil, nil) }

// Strings decodes the whole chunk of a string column. Returned slices may
// alias internal buffers; callers must not mutate them.
func (c *Chunk) Strings() ([][]byte, error) { return c.GatherStrings(nil, nil) }

// pageRange returns [first, last) chunk-relative rows of page p.
func (c *Chunk) pageRange(p int) (int, int) {
	first := int(c.meta.Pages[p].FirstRow)
	return first, first + int(c.meta.Pages[p].NumValues)
}

// eachPage declares and then reads, in order, every page holding a row sel
// keeps, calling read with the page and its [first, last) chunk rows; it
// counts every other page skipped. A nil sel keeps every row.
func (c *Chunk) eachPage(sel *bitutil.Bitmap, read func(p, first, last int) error) error {
	if sel != nil && sel.Len() != c.rows {
		return fmt.Errorf("colstore: selection of %d bits for %d rows", sel.Len(), c.rows)
	}
	c.declare(nil, sel, sel == nil)
	for p := range c.meta.Pages {
		if sel != nil && !c.PageSelected(sel, p) {
			c.skipPage()
			continue
		}
		first, last := c.pageRange(p)
		if err := read(p, first, last); err != nil {
			return err
		}
	}
	return nil
}

// kept returns the number of rows sel keeps: every row when sel is nil.
func (c *Chunk) kept(sel *bitutil.Bitmap) int {
	if sel == nil {
		return c.rows
	}
	return sel.Cardinality()
}

// typed rejects a decode of the chunk as values of type t.
func (c *Chunk) typed(t Type) error {
	if c.column.Type != t {
		return fmt.Errorf("colstore: column %q is %v", c.column.Name, c.column.Type)
	}
	return nil
}

// appendRows appends to out the values of one page decoded whole — rows
// [first, last) of the chunk — that sel keeps, all of them when sel is nil.
func appendRows[T any](out, vals []T, sel *bitutil.Bitmap, first, last int) ([]T, error) {
	if len(vals) != last-first {
		return nil, ErrFormat
	}
	if sel == nil {
		return append(out, vals...), nil
	}
	for i := sel.NextSet(first); i >= 0 && i < last; i = sel.NextSet(i + 1) {
		out = append(out, vals[i-first])
	}
	return out, nil
}

// lookup maps every key to its dictionary entry, in out's storage when it
// has room. out may be keys itself: entry i is written after key i is read.
func lookup[T any](out []T, keys []int64, dict []T) ([]T, error) {
	out = slices.Grow(out[:0], len(keys))[:len(keys)]
	for i, k := range keys {
		if k < 0 || int(k) >= len(dict) {
			return nil, ErrFormat
		}
		out[i] = dict[k]
	}
	return out, nil
}

// GatherInts returns the values at the selected chunk-relative rows, every
// row when sel is nil, implementing page-level skipping (unselected pages
// are never decompressed) and row-level skipping (bit-packed and
// dictionary pages jump over unselected rows without decoding them) —
// §5.2. Without a selection each page decodes whole through its codec. The
// result reuses dst's storage when it has room; pass nil for a fresh slice.
func (c *Chunk) GatherInts(sel *bitutil.Bitmap, dst []int64) ([]int64, error) {
	if err := c.typed(TypeInt64); err != nil {
		return nil, err
	}
	if usesDict(c.column.Encoding) {
		dict, err := c.r.IntDict(c.col)
		if err != nil {
			return nil, err
		}
		keys, err := c.GatherKeys(sel, dst)
		if err != nil {
			return nil, err
		}
		return lookup(keys, keys, dict)
	}
	codec, err := encoding.IntCodecFor(c.column.Encoding)
	if err != nil {
		return nil, err
	}
	out := slices.Grow(dst[:0], c.kept(sel))
	sc := arena.Get()
	defer arena.Put(sc)
	err = c.eachPage(sel, func(p, first, last int) error {
		body, err := c.pageBodyScratch(p, sc)
		if err != nil {
			return err
		}
		if sel != nil && c.column.Encoding == encoding.KindBitPacked {
			n, width, packed, err := encoding.InspectBitPacked(body)
			if err != nil || n != last-first {
				return ErrFormat
			}
			out = bitutil.GatherSelected(out, packed, width, true, sel, first, last)
			return nil
		}
		vals, err := codec.Decode(body)
		if err != nil {
			return err
		}
		out, err = appendRows(out, vals, sel, first, last)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GatherKeys returns dictionary keys at the selected rows, every row when
// sel is nil, with page- and row-level skipping, reusing dst's storage
// when it has room.
func (c *Chunk) GatherKeys(sel *bitutil.Bitmap, dst []int64) ([]int64, error) {
	if !usesDict(c.column.Encoding) {
		return nil, fmt.Errorf("colstore: column %q is not dictionary encoded", c.column.Name)
	}
	out := slices.Grow(dst[:0], c.kept(sel))
	sc := arena.Get()
	defer arena.Put(sc)
	err := c.eachPage(sel, func(p, first, last int) error {
		body, err := c.pageBodyScratch(p, sc)
		if err != nil {
			return err
		}
		if c.column.Encoding == encoding.KindDictRLE {
			vals, err := (encoding.RLEInt{}).Decode(body)
			if err != nil {
				return err
			}
			out, err = appendRows(out, vals, sel, first, last)
			return err
		}
		width, n, packed, err := decodePackedKeys(body)
		if err != nil || n != last-first {
			return ErrFormat
		}
		if sel != nil {
			out = bitutil.GatherSelected(out, packed, width, false, sel, first, last)
			return nil
		}
		// A local slice keeps the per-key loop off the captured variable.
		keys, r := out, bitutil.NewReader(packed)
		for i := 0; i < n; i++ {
			keys = append(keys, int64(r.ReadBits(width)))
		}
		out = keys
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GatherStrings returns string values at the selected rows, every row when
// sel is nil, with page-level skipping, reusing dst's storage when it has
// room. Values alias the column's dictionary or the page bodies read;
// callers must not mutate them.
func (c *Chunk) GatherStrings(sel *bitutil.Bitmap, dst [][]byte) ([][]byte, error) {
	if err := c.typed(TypeString); err != nil {
		return nil, err
	}
	if usesDict(c.column.Encoding) {
		dict, err := c.r.StrDict(c.col)
		if err != nil {
			return nil, err
		}
		sc := arena.Get()
		defer arena.Put(sc)
		keys, err := c.GatherKeys(sel, sc.Ints(0))
		if err != nil {
			return nil, err
		}
		sc.KeepInts(keys)
		return lookup(dst, keys, dict)
	}
	codec, err := encoding.StringCodecFor(c.column.Encoding)
	if err != nil {
		return nil, err
	}
	out := slices.Grow(dst[:0], c.kept(sel))
	err = c.eachPage(sel, func(p, first, last int) error {
		// Strings alias the body, so it must not live in scratch.
		body, err := c.pageBody(p)
		if err != nil {
			return err
		}
		vals, err := codec.Decode(nil, body)
		if err != nil {
			return err
		}
		out, err = appendRows(out, vals, sel, first, last)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GatherFloats returns float values at the selected rows, every row when
// sel is nil, with page-level skipping, reusing dst's storage when it has
// room.
func (c *Chunk) GatherFloats(sel *bitutil.Bitmap, dst []float64) ([]float64, error) {
	if err := c.typed(TypeFloat64); err != nil {
		return nil, err
	}
	out := slices.Grow(dst[:0], c.kept(sel))
	sc := arena.Get()
	defer arena.Put(sc)
	err := c.eachPage(sel, func(p, first, last int) error {
		body, err := c.pageBodyScratch(p, sc)
		if err != nil {
			return err
		}
		out, err = c.appendFloats(out, body, sel, first, last)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendFloats decodes the rows of one float page, [first, last) of the
// chunk, that sel keeps — every row when sel is nil — straight onto out.
// Floats never alias the body, so it may live in scratch.
func (c *Chunk) appendFloats(out []float64, body []byte, sel *bitutil.Bitmap, first, last int) ([]float64, error) {
	if c.column.Encoding == encoding.KindXorFloat {
		// XOR pages decode sequentially: decode the page onto out, then
		// compact the selected rows down over it.
		base := len(out)
		out, err := encoding.XorFloat{}.AppendDecode(out, body)
		if err != nil {
			return nil, err
		}
		if len(out)-base != last-first {
			return nil, ErrFormat
		}
		if sel == nil {
			return out, nil
		}
		k := base
		for i := sel.NextSet(first); i >= 0 && i < last; i = sel.NextSet(i + 1) {
			out[k] = out[base+i-first]
			k++
		}
		return out[:k], nil
	}
	n, vals, err := encoding.InspectPlain(body)
	if err != nil || n != last-first {
		return nil, ErrFormat
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(vals[i*8:])))
		}
		return out, nil
	}
	for i := sel.NextSet(first); i >= 0 && i < last; i = sel.NextSet(i + 1) {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(vals[(i-first)*8:])))
	}
	return out, nil
}
