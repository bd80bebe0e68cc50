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
	"codecdb/internal/obs"
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

// IOStats is a snapshot of a Reader's IO instrumentation; obs.IOStats
// documents the counters. A reader leaves WaitNanos and DecompressNanos,
// which only a tap counts, at zero.
type IOStats = obs.IOStats

// ioCounters is a set of atomic IO counters indexed by obs.IOCounter: a
// reader's own, or the process-wide set. Increments need no lock;
// consistent multi-field snapshots are taken under Reader.statsMu.
type ioCounters [obs.NumIOCounters]atomic.Int64

func (c *ioCounters) snapshot() IOStats {
	var s IOStats
	for k, p := range s.Fields() {
		*p = c[k].Load()
	}
	return s
}

// count books n of counter k on the reader, on the process-wide set and,
// when the caller attached one, on its tap: every IO event is this one
// call.
func (r *Reader) count(k obs.IOCounter, n int64, tap *IOStats) {
	r.io[k].Add(n)
	globalIO[k].Add(n)
	if tap != nil {
		*tap.Fields()[k] += n
	}
}

// Stats returns a snapshot of the reader's IO instrumentation. The
// snapshot is consistent with respect to ResetStats: a concurrent reset
// either precedes the whole snapshot or follows it, never tears it.
func (r *Reader) Stats() IOStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.io.snapshot()
}

// ResetStats zeroes the IO instrumentation counters. BytesInFlight is a
// live gauge owned by any active PageFetcher, not a counter, so a reset
// leaves it alone.
func (r *Reader) ResetStats() {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	for k := range r.io {
		if obs.IOCounter(k) != obs.BytesInFlight {
			r.io[k].Store(0)
		}
	}
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

// readAtBuf is readAtRaw that also books the bytes read, on tap too; it
// returns buf.
func (r *Reader) readAtBuf(buf []byte, off int64, tap *IOStats) ([]byte, error) {
	if err := r.readAtRaw(buf, off); err != nil {
		return nil, err
	}
	r.count(obs.BytesRead, int64(len(buf)), tap)
	return buf, nil
}

// readAtRaw reads len(buf) bytes at off with the bounded
// retry-on-transient-read policy: up to readAttempts attempts, so one
// flaky read (short read, I/O error) does not fail the query, while a
// persistent failure still surfaces after the budget is spent. It books
// one ReadCalls, however many attempts it makes, and the ReadAt wall
// time, and no bytes: the prefetcher calls it directly and books bytes at
// serve time, page by page, so gap bytes a coalesced run dragged in but
// no consumer ever touched never inflate BytesRead — the per-span IO
// attribution keeps summing exactly to the reader's delta.
func (r *Reader) readAtRaw(buf []byte, off int64) error {
	r.count(obs.ReadCalls, 1, nil)
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
	r.count(obs.IONanos, time.Since(start).Nanoseconds(), nil)
	return nil
}

// readDictBlob reads and verifies one dictionary blob. A checksum mismatch
// is retried with one fresh read (the flip may have happened in transit)
// before being reported as corruption.
func (r *Reader) readDictBlob(group string, dm DictMeta) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		buf, err := r.readAtBuf(make([]byte, dm.Size), dm.Offset, nil)
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
	tap    *IOStats
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

// Tap attaches t to the chunk and returns the chunk for chaining: every
// IO event the chunk counts on its reader lands in t too, letting a
// single-threaded caller (one pipeline stage on one worker) attribute IO
// without any barrier or snapshot. A nil tap is the untraced path.
func (c *Chunk) Tap(t *IOStats) *Chunk {
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

// PageBodyScratch reads and decompresses page p, exposing the encoded page
// bytes to encoding-aware operators. With a non-nil sc the returned bytes
// alias the scratch and are valid only until its next use; with a nil sc
// they are the caller's to keep.
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
func (c *Chunk) MarkPruned() { c.r.count(obs.PagesPruned, 1, c.tap) }

// MarkSkipped records n pages bypassed because an earlier predicate's
// selection already rules out every row they hold — the selection-pushdown
// counterpart of the row-ID skipping the gather paths count through the
// same statistic.
func (c *Chunk) MarkSkipped(n int) { c.r.count(obs.PagesSkipped, int64(n), c.tap) }

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
		// Counted per attempt: a checksum-retry re-read is real IO.
		raw, err := c.r.readAtBuf(buf, pm.Offset, c.tap)
		if err != nil {
			return nil, false, err
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

// pageBodyScratch reads, verifies, and decompresses page p. With a non-nil
// sc the raw bytes land in sc.Raw and the decompressed body in sc.Body, so
// the steady state allocates nothing; the returned body aliases the
// scratch and is valid until the scratch's next use. With a nil sc the
// body is freshly allocated (or the shared cache's) and stays valid, for
// values that alias it beyond one page's use.
func (c *Chunk) pageBodyScratch(p int, sc *arena.Scratch) ([]byte, error) {
	if c.r.cache != nil {
		if body, ok := c.r.cache.Get(c.r.id, c.rg, c.col, p); ok {
			// Served from the shared cache: no read, no checksum, no
			// decompression — PagesRead/BytesRead/BytesDecompressed stay
			// untouched on both the reader and the tap, so the span-IO ≡
			// IOStats-delta discipline holds with the cache on. The body
			// is shared and read-only; it does not enter the scratch.
			c.r.count(obs.PageCacheHits, 1, c.tap)
			return body, nil
		}
		c.r.count(obs.PageCacheMisses, 1, c.tap)
	}
	raw, staged, err := c.rawPageBuf(p, sc)
	if err != nil {
		return nil, err
	}
	c.r.count(obs.PagesRead, 1, c.tap)
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
	c.r.count(obs.BytesDecompressed, int64(len(body)), c.tap)
	if c.r.cache != nil {
		c.r.cache.Put(c.r.id, c.rg, c.col, p, body)
	}
	return body, nil
}

// PackedPage exposes one page's packed-key region for in-situ scanning.
type PackedPage struct {
	Data     []byte // packed bits, LSB-first
	N        int    // entries in this page
	Width    uint   // bits per entry
	FirstRow int    // chunk-relative row of the first entry
	Zigzag   bool   // entries are zigzag-mapped plain integers, not dict keys
}

// packedScannable reports whether the chunk's pages have an in-situ
// scannable packed representation (PackedPageAt will succeed).
func (c *Chunk) packedScannable() bool {
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
	if !c.packedScannable() {
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

// eachPage is every gather: it declares and then reads, in order, every
// page holding a row sel keeps — every row when sel is nil — appending
// each page's kept values onto dst's storage when it has room, and counts
// every other page skipped.
func eachPage[T any](c *Chunk, sel *bitutil.Bitmap, dst []T, read func(p int, out []T) ([]T, error)) ([]T, error) {
	if sel != nil && sel.Len() != c.rows {
		return nil, fmt.Errorf("colstore: selection of %d bits for %d rows", sel.Len(), c.rows)
	}
	c.declare(nil, sel, sel == nil)
	out := slices.Grow(dst[:0], c.kept(sel))
	for p := range c.meta.Pages {
		if sel != nil && !c.PageSelected(sel, p) {
			c.MarkSkipped(1)
			continue
		}
		var err error
		if out, err = read(p, out); err != nil {
			return nil, err
		}
	}
	return out, nil
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
// vals may be out's own spare capacity: the k-th kept row sits at or past
// index k, so no copy overtakes its source.
func appendRows[T any](out, vals []T, sel *bitutil.Bitmap, first, last int) ([]T, error) {
	if len(vals) != last-first {
		return nil, ErrFormat
	}
	if sel == nil {
		return append(out, vals...), nil
	}
	return bitutil.AppendSelected(out, vals, sel, first, last), nil
}

// gatherPage appends to out the rows of one page — [first, last) of the
// chunk — that sel keeps, every row when sel is nil, where decode appends
// the whole page onto a slice. Without a selection the page decodes
// straight onto out; with one it decodes into buf, a scratch buffer, and
// only the kept rows reach out, so neither path allocates per page. It
// returns buf as decode grew it, for the scratch to keep.
func gatherPage[T any](out, buf []T, sel *bitutil.Bitmap, first, last int,
	decode func(dst []T) ([]T, error)) (res, grown []T, err error) {
	if sel == nil {
		base := len(out)
		if out, err = decode(out); err != nil {
			return nil, buf, err
		}
		if len(out)-base != last-first {
			return nil, buf, ErrFormat
		}
		return out, buf, nil
	}
	// Sized to the page at once, so a fresh scratch allocates once.
	vals, err := decode(slices.Grow(buf[:0], last-first))
	if err != nil {
		return nil, buf, err
	}
	out, err = appendRows(out, vals, sel, first, last)
	return out, vals, err
}

// lookup appends to out the dictionary entry of every key.
func lookup[T any](out []T, keys []int64, dict []T) ([]T, error) {
	base := len(out)
	out = slices.Grow(out, len(keys))[:base+len(keys)]
	for i, k := range keys {
		if uint64(k) >= uint64(len(dict)) {
			return nil, ErrFormat
		}
		out[base+i] = dict[k]
	}
	return out, nil
}

// The per-page readers below are the one place a page meets its decoder:
// the gathers loop them over a chunk, and the filter kernel's decode
// primitive calls them on the pages a zone-map verdict leaves to it. Each
// appends to dst the values of page p at the rows sel keeps, every row
// when sel is nil, implementing row-level skipping (§5.2): bit-packed,
// plain and dictionary pages load only the kept entries; other pages
// decode whole into the scratch and only the kept rows reach dst.

// PageInts reads page p of an integer column, looking up dictionary keys.
// sc must be non-nil; dst never aliases it.
func (c *Chunk) PageInts(p int, sel *bitutil.Bitmap, sc *arena.Scratch, dst []int64) ([]int64, error) {
	if err := c.typed(TypeInt64); err != nil {
		return nil, err
	}
	if usesDict(c.column.Encoding) {
		dict, err := c.r.IntDict(c.col)
		if err != nil {
			return nil, err
		}
		keys, err := c.pageKeys(p, sel, sc)
		if err != nil {
			return nil, err
		}
		return lookup(dst, keys, dict)
	}
	body, err := c.pageBodyScratch(p, sc)
	if err != nil {
		return nil, err
	}
	first, last := c.pageRange(p)
	if sel != nil {
		// Bit-packed and plain pages are fixed-width streams (a plain
		// page's at width 64): only the selected entries load.
		switch c.column.Encoding {
		case encoding.KindBitPacked:
			n, width, packed, err := encoding.InspectBitPacked(body)
			if err != nil || n != last-first {
				return nil, ErrFormat
			}
			return bitutil.GatherSelected(dst, packed, width, true, sel, first, last), nil
		case encoding.KindPlain:
			n, vals, err := encoding.InspectPlain(body)
			if err != nil || n != last-first {
				return nil, ErrFormat
			}
			return bitutil.GatherSelected(dst, vals, 64, false, sel, first, last), nil
		}
	}
	codec, err := encoding.IntCodecFor(c.column.Encoding)
	if err != nil {
		return nil, err
	}
	out, buf, err := gatherPage(dst, sc.Ints(0), sel, first, last, func(d []int64) ([]int64, error) {
		return encoding.AppendDecode(codec, d, body)
	})
	sc.KeepInts(buf)
	return out, err
}

// PageFloats reads page p of a float column. sc must be non-nil; dst
// never aliases it.
func (c *Chunk) PageFloats(p int, sel *bitutil.Bitmap, sc *arena.Scratch, dst []float64) ([]float64, error) {
	if err := c.typed(TypeFloat64); err != nil {
		return nil, err
	}
	body, err := c.pageBodyScratch(p, sc)
	if err != nil {
		return nil, err
	}
	first, last := c.pageRange(p)
	if sel != nil && c.column.Encoding == encoding.KindPlain {
		// A plain page is a width-64 stream of float bits: only the
		// selected entries load.
		n, vals, err := encoding.InspectPlain(body)
		if err != nil || n != last-first {
			return nil, ErrFormat
		}
		fbits := bitutil.GatherSelected(sc.Ints(n), vals, 64, false, sel, first, last)
		sc.KeepInts(fbits)
		for _, b := range fbits {
			dst = append(dst, math.Float64frombits(uint64(b)))
		}
		return dst, nil
	}
	out, buf, err := gatherPage(dst, sc.Floats(0), sel, first, last, func(d []float64) ([]float64, error) {
		return c.appendFloats(d, body)
	})
	sc.KeepFloats(buf)
	return out, err
}

// PageStrings reads page p of a string column. Values alias the column's
// dictionary or the page body, and callers must not mutate them: with a
// scratch the body lives in sc and they are valid until its next use; with
// a nil sc (a retained gather) they stay valid for as long as they are
// held.
func (c *Chunk) PageStrings(p int, sel *bitutil.Bitmap, sc *arena.Scratch, dst [][]byte) ([][]byte, error) {
	if err := c.typed(TypeString); err != nil {
		return nil, err
	}
	if usesDict(c.column.Encoding) {
		dict, err := c.r.StrDict(c.col)
		if err != nil {
			return nil, err
		}
		if sc == nil {
			// Entries alias the dictionary, never the page: its keys may
			// pass through pooled scratch whatever the caller retains.
			sc = arena.Get()
			defer arena.Put(sc)
		}
		keys, err := c.pageKeys(p, sel, sc)
		if err != nil {
			return nil, err
		}
		return lookup(dst, keys, dict)
	}
	codec, err := encoding.StringCodecFor(c.column.Encoding)
	if err != nil {
		return nil, err
	}
	body, err := c.pageBodyScratch(p, sc)
	if err != nil {
		return nil, err
	}
	// The page decodes into dst's spare capacity, grown to hold it; a
	// DELTA_LENGTH page's lengths decode into the scratch's int buffer.
	first, last := c.pageRange(p)
	dst = slices.Grow(dst, last-first)
	var vals [][]byte
	if dl, ok := codec.(encoding.DeltaLengthString); ok && sc != nil {
		var lens []int64
		vals, lens, err = dl.DecodeWith(dst[len(dst):], body, sc.Ints(last-first))
		sc.KeepInts(lens)
	} else {
		vals, err = codec.Decode(dst[len(dst):], body)
	}
	if err != nil {
		return nil, err
	}
	return appendRows(dst, vals, sel, first, last)
}

// pageKeys returns the dictionary keys of page p at the rows sel keeps,
// every row when sel is nil, in sc's int buffer: a page of packed keys
// loads only the kept entries, and a dictionary-RLE page expands whole and
// is squeezed down in place (appendRows).
func (c *Chunk) pageKeys(p int, sel *bitutil.Bitmap, sc *arena.Scratch) ([]int64, error) {
	body, err := c.pageBodyScratch(p, sc)
	if err != nil {
		return nil, err
	}
	first, last := c.pageRange(p)
	keys := sc.Ints(last - first)
	if c.column.Encoding == encoding.KindDictRLE {
		if keys, err = (encoding.RLEInt{}).AppendDecode(keys, body); err != nil {
			return nil, err
		}
		sc.KeepInts(keys)
		return appendRows(keys[:0], keys, sel, first, last)
	}
	width, n, packed, err := decodePackedKeys(body)
	if err != nil || n != last-first {
		return nil, ErrFormat
	}
	if sel != nil {
		return bitutil.GatherSelected(keys, packed, width, false, sel, first, last), nil
	}
	return bitutil.AppendUnpacked(keys, packed, width, n, false), nil
}

// GatherInts returns the values at the selected chunk-relative rows, every
// row when sel is nil, page by page through PageInts: unselected pages are
// never decompressed (§5.2). The result reuses dst's storage when it has
// room; pass nil for a fresh slice.
func (c *Chunk) GatherInts(sel *bitutil.Bitmap, dst []int64) ([]int64, error) {
	if err := c.typed(TypeInt64); err != nil {
		return nil, err
	}
	sc := arena.Get()
	defer arena.Put(sc)
	return eachPage(c, sel, dst, func(p int, out []int64) ([]int64, error) {
		return c.PageInts(p, sel, sc, out)
	})
}

// GatherKeys returns dictionary keys at the selected rows, every row when
// sel is nil, with page- and row-level skipping, reusing dst's storage
// when it has room.
func (c *Chunk) GatherKeys(sel *bitutil.Bitmap, dst []int64) ([]int64, error) {
	if !usesDict(c.column.Encoding) {
		return nil, fmt.Errorf("colstore: column %q is not dictionary encoded", c.column.Name)
	}
	sc := arena.Get()
	defer arena.Put(sc)
	return eachPage(c, sel, dst, func(p int, out []int64) ([]int64, error) {
		keys, err := c.pageKeys(p, sel, sc)
		return append(out, keys...), err
	})
}

// GatherStrings returns string values at the selected rows, every row when
// sel is nil, page by page through PageStrings, reusing dst's storage when
// it has room. Values alias the column's dictionary or the page bodies
// read; callers must not mutate them.
func (c *Chunk) GatherStrings(sel *bitutil.Bitmap, dst [][]byte) ([][]byte, error) {
	if err := c.typed(TypeString); err != nil {
		return nil, err
	}
	return eachPage(c, sel, dst, func(p int, out [][]byte) ([][]byte, error) {
		return c.PageStrings(p, sel, nil, out)
	})
}

// GatherFloats returns float values at the selected rows, every row when
// sel is nil, page by page through PageFloats, reusing dst's storage when
// it has room.
func (c *Chunk) GatherFloats(sel *bitutil.Bitmap, dst []float64) ([]float64, error) {
	if err := c.typed(TypeFloat64); err != nil {
		return nil, err
	}
	sc := arena.Get()
	defer arena.Put(sc)
	return eachPage(c, sel, dst, func(p int, out []float64) ([]float64, error) {
		return c.PageFloats(p, sel, sc, out)
	})
}

// appendFloats decodes one float page whole onto out. Floats never alias
// the body, so it may live in scratch.
func (c *Chunk) appendFloats(out []float64, body []byte) ([]float64, error) {
	if c.column.Encoding == encoding.KindXorFloat {
		return encoding.XorFloat{}.AppendDecode(out, body)
	}
	n, vals, err := encoding.InspectPlain(body)
	if err != nil {
		return nil, ErrFormat
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(vals[i*8:])))
	}
	return out, nil
}
