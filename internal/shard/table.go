// Package shard is the durable write path behind a CodecDB table: a
// group-committed write-ahead log feeding an in-memory ingest buffer,
// background flushes that encode sealed memtables into immutable column
// shards, and a checksummed MANIFEST — atomically replaced, never
// patched — that names the exact live shard set.
//
// The crash safety contract (DESIGN.md):
//
//   - An Append that returns nil is durable: the row was fsynced into
//     the WAL before the ack, and recovery replays it.
//   - Recovery returns the table to exactly the acknowledged state,
//     plus possibly rows whose WAL write reached disk but whose ack was
//     lost — never a torn, partial, or corrupt row.
//   - A shard that fails verification at open is quarantined, not
//     fatal: the table serves the remaining shards and reports the
//     damage through Scrub.
//   - Everything in the table directory that the MANIFEST does not name
//     is crash debris (temp files, orphaned shards, dead WAL segments)
//     and is swept on open.
package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/memtable"
	"codecdb/internal/obs"
	"codecdb/internal/vfs"
	"codecdb/internal/wal"
)

var (
	flushesTotal = obs.Default().Counter(
		"codecdb_flushes_total", "Memtable flushes committed (shard published + manifest advanced).")
	flushRowsTotal = obs.Default().Counter(
		"codecdb_flush_rows_total", "Rows moved from memtables into shards by flushes.")
	quarantinedTotal = obs.Default().Counter(
		"codecdb_quarantined_shards_total", "Shards quarantined at open after failing verification.")
	flushSeconds = obs.Default().Histogram(
		"codecdb_flush_seconds",
		"Flush duration (encode, publish, manifest, trim) in seconds.", nil)
)

// FlushFunc encodes one sealed memtable into a column shard file at
// path (through the table's filesystem). It returns the per-column
// encodings chosen — the learned selector re-runs on every flush, so
// encodings track the data each shard actually holds.
type FlushFunc func(mem *memtable.ColumnTable, path string) (encodings map[string]string, err error)

// Options tunes a sharded table.
type Options struct {
	// SealBytes is the memtable seal threshold (payload bytes); <= 0
	// selects memtable.DefaultSealBytes.
	SealBytes int
	// Name labels the table in structured log events and flight-recorder
	// records; "" falls back to the directory base name.
	Name string
	// Logger receives one structured event per flush, quarantine,
	// recovery, and torn-tail truncation; nil drops them (nil-safe).
	Logger *obs.Logger
	// PageCache, when non-nil, is attached to every shard reader so
	// decompressed page bodies are shared across queries (and across
	// shards of one cache budget). Readers invalidate their entries on
	// close.
	PageCache *colstore.PageCache
}

func (o Options) withDefaults() Options {
	if o.SealBytes <= 0 {
		o.SealBytes = memtable.DefaultSealBytes
	}
	return o
}

// name labels the table for logs and records.
func (t *Table) name() string {
	if t.opts.Name != "" {
		return t.opts.Name
	}
	return t.dir[strings.LastIndexByte(t.dir, '/')+1:]
}

// logger returns the injected structured logger (nil drops events).
func (t *Table) logger() *obs.Logger { return t.opts.Logger }

// liveID returns a live entry's ID, 0 when the recorder is off.
func liveID(lq *obs.LiveQuery) uint64 {
	if lq == nil {
		return 0
	}
	return lq.ID
}

// QuarantinedShard names a manifest shard that failed verification at
// open and is excluded from queries.
type QuarantinedShard struct {
	File string
	Err  string
}

// shardHandle is one live (opened, verified) shard.
type shardHandle struct {
	meta ShardMeta
	r    *colstore.Reader
}

// sealedEntry is a sealed memtable awaiting flush. start is the WAL
// segment that was active when its buffer started accepting rows: every
// row in mem lives in segments [start, sealing rotation), so once mem
// is flushed, segments below the *next* entry's start are dead. img is
// the memtable's column image, built by the first query that needs it.
type sealedEntry struct {
	mem   *memtable.ColumnTable
	start uint64

	imgMu sync.Mutex
	img   *colstore.Reader
}

// Table is a sharded, WAL-backed table.
type Table struct {
	fs      vfs.FS
	dir     string
	cols    []Column
	opts    Options
	flushFn FlushFunc

	// epochMu orders appends against seal/rotate: appenders hold it
	// shared across (WAL append, memtable insert) so a rotation never
	// slips between the two — the pair lands in one WAL epoch, which is
	// what makes segment trimming safe.
	epochMu sync.RWMutex

	// dataEpoch versions the visible row set: bumped on every durable
	// append and every published flush, it is what epoch-keyed caches
	// (query results, decompressed pages) compare to detect staleness.
	dataEpoch atomic.Uint64

	mu          sync.Mutex
	cond        *sync.Cond
	man         *Manifest
	shards      []*shardHandle
	quarantined []QuarantinedShard
	buf         *memtable.Buffer
	sealedQ     []*sealedEntry
	sealGen     uint64 // bumped at every seal: names the active buffer's generation
	w           *wal.Writer
	walSeq      uint64 // active segment sequence
	activeStart uint64 // segment holding the active buffer's oldest row
	flushErr    error
	trimmedTo   uint64 // segments below this are already deleted
	kicks       int    // flush wake generation; failed flushes wait for the next kick
	flushing    bool   // the flusher is inside flushOne (its record and log not yet written)
	closed      bool
	flusherDone chan struct{}
	lastFlush   string // rendered span tree of the last committed flush

	// schema is an empty tail image: a reader that carries the column
	// names and types and nothing else.
	schema *colstore.Reader

	// active caches the active buffer's column image; it is rebuilt only
	// when the buffer's generation or row count moved. tailIO keeps the
	// IO counters of images already dropped, so IOStats never runs
	// backwards when a flush or a rebuild retires one.
	tailMu sync.Mutex
	active struct {
		gen  uint64
		rows int
		img  *colstore.Reader
	}
	tailIO obs.IOStats
}

// Open opens (or creates) a sharded table in dir, recovering it to the
// acknowledged state: live shards are opened and verified (failures
// quarantined, not fatal), crash debris is swept, and every WAL segment
// at or above the manifest's floor is replayed into the memtable —
// stopping cleanly at torn tails. The directory must exist.
func Open(fsys vfs.FS, dir string, cols []Column, opts Options, flushFn FlushFunc) (*Table, error) {
	opts = opts.withDefaults()
	man, err := loadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	t := &Table{
		fs: fsys, dir: dir, cols: cols, opts: opts, flushFn: flushFn,
		man:         man,
		flusherDone: make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	names := make([]string, len(cols))
	types := make([]memtable.ColType, len(cols))
	for i, c := range cols {
		names[i], types[i] = c.Name, c.Type
	}
	// The buffer never self-seals: sealing must rotate the WAL in the
	// same critical section, so the table drives it off SizeBytes.
	t.buf = memtable.NewBuffer(names, types, math.MaxInt)
	if t.schema, err = tailImage(cols, memtable.NewColumnTable(names, types)); err != nil {
		return nil, err
	}

	if err := t.openShards(); err != nil {
		return nil, err
	}
	if err := t.recover(); err != nil {
		t.closeShardsLocked()
		return nil, err
	}
	go t.flusher()
	return t, nil
}

// openShards opens and verifies every manifest shard, quarantining
// failures.
func (t *Table) openShards() error {
	live := make(map[string]bool, len(t.man.Shards))
	for _, sm := range t.man.Shards {
		live[sm.File] = true
		r, err := colstore.OpenFS(t.fs, join(t.dir, sm.File))
		if err == nil {
			r.SetPageCache(t.opts.PageCache)
			if verr := r.Verify(context.Background()); verr != nil {
				r.Close()
				r, err = nil, verr
			}
		}
		if err != nil {
			t.quarantined = append(t.quarantined, QuarantinedShard{File: sm.File, Err: err.Error()})
			quarantinedTotal.Inc()
			t.logger().Error("shard quarantined",
				"table", t.name(), "shard", sm.File, "err", err.Error())
			continue
		}
		t.shards = append(t.shards, &shardHandle{meta: sm, r: r})
	}
	return nil
}

// recover sweeps crash debris and replays the WAL tail into the
// memtable, recording the pass in the flight recorder and logging a
// summary (plus one event per torn tail) when a logger is injected.
func (t *Table) recover() error {
	fr := obs.DefaultRecorder()
	lq := fr.Begin(obs.KindRecovery, t.name(), "Recovery", "")
	start := time.Now()
	st, err := t.recoverWAL(lq)
	rec := &obs.QueryRecord{
		Wall:    time.Since(start),
		RowsIn:  int64(st.records),
		RowsOut: int64(st.records),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	fr.Finish(lq, rec)
	if err == nil && st.segments > 0 {
		t.logger().Info("recovery",
			"id", liveID(lq), "table", t.name(),
			"segments", st.segments, "records", st.records, "torn", st.torn)
	}
	return err
}

// recoverStats summarizes one recovery pass.
type recoverStats struct {
	segments int // WAL segments replayed
	records  int // records restored into the memtable
	torn     int // segments truncated at a torn tail
}

func (t *Table) recoverWAL(lq *obs.LiveQuery) (recoverStats, error) {
	var st recoverStats
	entries, err := t.fs.ReadDir(t.dir)
	if err != nil {
		return st, err
	}
	live := make(map[string]bool, len(t.man.Shards))
	for _, sm := range t.man.Shards {
		live[sm.File] = true
	}
	var segs []uint64
	maxSeen := t.man.WalFloor - 1
	for _, name := range entries {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Double-crash debris: a flush died mid-encode (or
			// mid-manifest-write), then the retry died too. The data is
			// still in the WAL; the temp file is garbage.
			t.fs.Remove(join(t.dir, name))
		case strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".cdb"):
			if !live[name] {
				// Renamed into place but never committed to the
				// manifest: the flush's manifest write crashed. The rows
				// are still in the WAL; the orphan must go, or a later
				// flush could collide with its name.
				t.fs.Remove(join(t.dir, name))
			}
		default:
			if seq, ok := wal.ParseSegmentName(name); ok {
				if seq < t.man.WalFloor {
					t.fs.Remove(join(t.dir, name)) // fully flushed, dead
				} else {
					segs = append(segs, seq)
				}
				if seq > maxSeen {
					maxSeen = seq
				}
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, seq := range segs {
		res, err := wal.Replay(t.fs, join(t.dir, wal.SegmentName(seq)), func(payload []byte) error {
			vals, err := decodeRow(t.cols, payload)
			if err != nil {
				// CRC-valid but undecodable: treat like a torn tail —
				// stop this segment, keep what was intact.
				return errStopReplay
			}
			_, aerr := t.buf.Append(vals...)
			return aerr
		})
		if err != nil && err != errStopReplay {
			return st, fmt.Errorf("shard: replay %s: %w", wal.SegmentName(seq), err)
		}
		st.segments++
		st.records += res.Records
		if res.Torn {
			st.torn++
			t.logger().Warn("wal torn tail truncated",
				"id", liveID(lq), "table", t.name(),
				"segment", wal.SegmentName(seq), "offset", res.TornAt)
		}
	}

	// Fresh active segment after everything seen; the replayed rows sit
	// in the active buffer, whose oldest row may date back to the floor.
	newSeq := maxSeen + 1
	w, err := wal.Create(t.fs, join(t.dir, wal.SegmentName(newSeq)), newSeq)
	if err != nil {
		return st, fmt.Errorf("shard: create wal segment: %w", err)
	}
	t.w, t.walSeq = w, newSeq
	t.activeStart = t.man.WalFloor
	t.trimmedTo = t.man.WalFloor // recovery just swept everything below
	return st, nil
}

// errStopReplay aborts one segment's replay without failing recovery.
var errStopReplay = fmt.Errorf("shard: stop replay")

// Cols returns the schema.
func (t *Table) Cols() []Column { return t.cols }

// Schema returns an empty reader over the table's columns, for checking
// names and types without taking a snapshot.
func (t *Table) Schema() *colstore.Reader { return t.schema }

// Dir returns the table directory.
func (t *Table) Dir() string { return t.dir }

// Epoch identifies the current data version: it advances on every
// durable append and every published flush. Epoch-keyed caches compare
// it to detect staleness; equality guarantees the visible row set has
// not changed.
func (t *Table) Epoch() uint64 { return t.dataEpoch.Load() }

// Append durably adds one row: it returns nil only after the row is
// fsynced into the WAL (group-committed with concurrent appenders) and
// visible in the memtable. On error nothing is acknowledged.
func (t *Table) Append(vals ...any) error {
	payload, err := encodeRow(t.cols, vals)
	if err != nil {
		return err
	}
	t.epochMu.RLock()
	w, buf := t.w, t.buf
	if w == nil {
		t.epochMu.RUnlock()
		return fmt.Errorf("shard: table closed")
	}
	if err := w.Append(payload); err != nil {
		t.epochMu.RUnlock()
		return err
	}
	if _, err := buf.Append(vals...); err != nil {
		t.epochMu.RUnlock()
		return fmt.Errorf("shard: row durable but not applied: %w", err)
	}
	needSeal := buf.SizeBytes() >= t.opts.SealBytes
	t.dataEpoch.Add(1)
	t.epochMu.RUnlock()
	if needSeal {
		t.maybeSeal()
	}
	return nil
}

// maybeSeal seals and rotates if the buffer is still over threshold by
// the time the exclusive lock arrives (another appender may have sealed
// already).
func (t *Table) maybeSeal() {
	t.epochMu.Lock()
	defer t.epochMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.buf.SizeBytes() < t.opts.SealBytes {
		return
	}
	t.sealAndRotateLocked()
}

// sealAndRotateLocked seals the active buffer into the flush queue and
// rotates the WAL, as one atomic step: rows appended after it return go
// to the new segment, so every sealed row lives strictly below the new
// segment — the invariant that makes trimming after flush safe. Callers
// hold epochMu (exclusive) and mu. Errors are recorded in flushErr (the
// seal is abandoned; rows stay in the active buffer and WAL).
func (t *Table) sealAndRotateLocked() {
	if t.buf.Rows() == 0 {
		return
	}
	newSeq := t.walSeq + 1
	nw, err := wal.Create(t.fs, join(t.dir, wal.SegmentName(newSeq)), newSeq)
	if err != nil {
		t.flushErr = fmt.Errorf("shard: rotate wal: %w", err)
		t.cond.Broadcast()
		return
	}
	sealed := t.buf.Seal()
	if sealed == nil {
		nw.Close()
		t.fs.Remove(join(t.dir, wal.SegmentName(newSeq)))
		return
	}
	t.w.Close()
	t.w, t.walSeq = nw, newSeq
	t.sealedQ = append(t.sealedQ, &sealedEntry{mem: sealed, start: t.activeStart})
	t.sealGen++
	t.activeStart = newSeq
	t.kicks++
	t.cond.Broadcast()
}

// Flush seals whatever the active buffer holds and blocks until the
// flush queue drains (or a flush fails). It is the synchronous
// counterpart of the background flusher.
func (t *Table) Flush() error {
	t.epochMu.Lock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.epochMu.Unlock()
		return fmt.Errorf("shard: table closed")
	}
	t.flushErr = nil
	t.sealAndRotateLocked()
	err := t.flushErr
	t.kicks++
	t.cond.Broadcast()
	t.mu.Unlock()
	t.epochMu.Unlock()
	if err != nil {
		return err
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	// Wait for the queue to drain and for the flusher to finish its last
	// flush's bookkeeping: the shard commits (and leaves the queue) before
	// flushOne writes the flight-recorder entry and the log event, and a
	// caller that reads either right after Flush must find them.
	for (len(t.sealedQ) > 0 || t.flushing) && t.flushErr == nil && !t.closed {
		t.cond.Wait()
	}
	return t.flushErr
}

// flusher is the background flush loop: one goroutine drains the sealed
// queue in order. After a failure it parks until the next kick (a new
// seal or an explicit Flush) rather than spinning against a sick disk.
func (t *Table) flusher() {
	defer close(t.flusherDone)
	lastFailedKick := -1
	for {
		t.mu.Lock()
		for !t.closed && (len(t.sealedQ) == 0 || t.kicks == lastFailedKick) {
			t.cond.Wait()
		}
		if t.closed {
			t.mu.Unlock()
			return
		}
		e := t.sealedQ[0]
		kick := t.kicks
		t.flushing = true
		t.mu.Unlock()

		err := t.flushOne(e)
		t.mu.Lock()
		t.flushing = false
		lastFailedKick = -1
		if err != nil {
			t.flushErr = err
			lastFailedKick = kick
		}
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

// flushOne runs one flush under a flight-recorder entry: the flush gets
// a process-wide ID, its duration lands in the flush histogram, its
// span tree is kept on the completed record, and one structured log
// event reports the outcome.
func (t *Table) flushOne(e *sealedEntry) error {
	rows := int64(e.mem.NumRows())
	fr := obs.DefaultRecorder()
	lq := fr.Begin(obs.KindFlush, t.name(), "Flush", "")
	start := time.Now()
	sp, file, err := t.flushShard(e, liveID(lq))
	d := time.Since(start)
	flushSeconds.Observe(d.Seconds())
	rec := &obs.QueryRecord{Wall: d, RowsIn: rows, RowsOut: rows, TraceRoot: sp}
	if err != nil {
		rec.Err = err.Error()
		rec.RowsOut = 0
	}
	fr.Finish(lq, rec)
	if err != nil {
		t.logger().Error("flush failed",
			"id", liveID(lq), "table", t.name(), "rows", rows, "err", err.Error())
		return err
	}
	t.logger().Info("flush",
		"id", liveID(lq), "table", t.name(), "shard", file,
		"rows", rows, "duration", d)
	return nil
}

// flushShard encodes one sealed memtable into a shard, publishes it by
// rename, commits the manifest, and trims dead WAL segments. Traced as
// a Flush span (Encode → Publish → Manifest → Trim) retrievable via
// LastFlushTrace.
func (t *Table) flushShard(e *sealedEntry, id uint64) (*obs.Span, string, error) {
	sp := obs.NewSpan("Flush")
	sp.SetRows(int64(e.mem.NumRows()), int64(e.mem.NumRows()))

	t.mu.Lock()
	fileNum := t.man.NextFile
	t.mu.Unlock()
	file := fmt.Sprintf("shard-%08d.cdb", fileNum)
	tmp := join(t.dir, file+".tmp")
	final := join(t.dir, file)

	enc := sp.StartChild("Encode")
	encodings, err := t.flushFn(e.mem, tmp)
	enc.AddDetail("%d rows -> %s", e.mem.NumRows(), file)
	enc.End()
	if err != nil {
		t.fs.Remove(tmp) // best effort; recovery sweeps leftovers anyway
		sp.End()
		return sp, file, fmt.Errorf("shard: encode %s: %w", file, err)
	}

	pub := sp.StartChild("Publish")
	err = t.fs.Rename(tmp, final)
	if err == nil {
		err = t.fs.SyncDir(t.dir)
	}
	var r *colstore.Reader
	if err == nil {
		r, err = colstore.OpenFS(t.fs, final)
		if err == nil {
			r.SetPageCache(t.opts.PageCache)
		}
	}
	pub.End()
	if err != nil {
		sp.End()
		return sp, file, fmt.Errorf("shard: publish %s: %w", file, err)
	}

	// The manifest's new WAL floor: the oldest segment any still-unflushed
	// row can live in. Queue order is ingest order, so that is the next
	// queued entry's start, or the active buffer's.
	t.mu.Lock()
	var floor uint64
	if len(t.sealedQ) > 1 {
		floor = t.sealedQ[1].start
	} else {
		floor = t.activeStart
	}
	newMan := &Manifest{
		Seq:      t.man.Seq + 1,
		WalFloor: floor,
		NextFile: fileNum + 1,
		Shards:   append(append([]ShardMeta(nil), t.man.Shards...), ShardMeta{File: file, Rows: r.NumRows(), Encodings: encodings}),
	}
	t.mu.Unlock()

	msp := sp.StartChild("Manifest")
	err = writeManifest(t.fs, t.dir, newMan)
	msp.AddDetail("seq=%d shards=%d wal_floor=%d", newMan.Seq, len(newMan.Shards), newMan.WalFloor)
	msp.End()
	if err != nil {
		r.Close()
		sp.End()
		return sp, file, fmt.Errorf("shard: manifest: %w", err)
	}

	// Trim dead segments. The manifest is already durable, so failure is
	// harmless — recovery re-sweeps — and cannot fail the flush.
	trim := sp.StartChild("Trim")
	t.mu.Lock()
	from := t.trimmedTo
	if floor > t.trimmedTo {
		t.trimmedTo = floor
	}
	t.mu.Unlock()
	trimmed := 0
	for seq := from; seq < floor; seq++ {
		if t.fs.Remove(join(t.dir, wal.SegmentName(seq))) == nil {
			trimmed++
		}
	}
	trim.AddDetail("%d segments below floor %d", trimmed, floor)
	trim.End()
	sp.End()

	// Commit in memory; the shard is now queryable and waiters wake.
	t.mu.Lock()
	t.man = newMan
	t.shards = append(t.shards, &shardHandle{meta: newMan.Shards[len(newMan.Shards)-1], r: r})
	t.dataEpoch.Add(1)
	t.sealedQ = t.sealedQ[1:]
	t.lastFlush = sp.Render()
	t.cond.Broadcast()
	t.mu.Unlock()
	t.retire(e.built())
	flushesTotal.Inc()
	flushRowsTotal.Add(int64(e.mem.NumRows()))
	return sp, file, nil
}

// LastFlushTrace returns the rendered span tree of the most recent
// committed flush ("" before the first).
func (t *Table) LastFlushTrace() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastFlush
}

// Encodings returns the per-column encoding the most recent flush chose
// (the selector re-runs each flush, so later shards win; columns never
// flushed are absent).
func (t *Table) Encodings() map[string]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]string{}
	for _, sm := range t.man.Shards {
		for c, e := range sm.Encodings {
			out[c] = e
		}
	}
	return out
}

// Quarantined lists shards excluded at open for failing verification.
func (t *Table) Quarantined() []QuarantinedShard {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]QuarantinedShard(nil), t.quarantined...)
}

// NumRows returns the live row count: shards + sealed + active buffer.
func (t *Table) NumRows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, h := range t.shards {
		n += h.meta.Rows
	}
	for _, e := range t.sealedQ {
		n += int64(e.mem.NumRows())
	}
	return n + int64(t.buf.Rows())
}

// Snapshot captures a consistent view for query execution as an ordered
// list of column readers: the live shards in ingest order, then the
// in-memory tail — every sealed memtable, then the active buffer — each
// presented as an uncompressed PLAIN column image held in memory (see
// tailImage). Row ids are assigned in that order. Shards and sealed
// images are immutable; the active image covers exactly the rows the
// buffer held when the snapshot was taken.
func (t *Table) Snapshot() ([]*colstore.Reader, error) {
	t.mu.Lock()
	parts := make([]*colstore.Reader, 0, len(t.shards)+len(t.sealedQ)+1)
	for _, h := range t.shards {
		parts = append(parts, h.r)
	}
	sealed := append([]*sealedEntry(nil), t.sealedQ...)
	active, gen := t.buf.Snapshot(), t.sealGen
	t.mu.Unlock()

	for _, e := range sealed {
		img, err := e.image(t.cols)
		if err != nil {
			return nil, err
		}
		parts = append(parts, img)
	}
	t.tailMu.Lock()
	defer t.tailMu.Unlock()
	if a := &t.active; a.img == nil || a.gen != gen || a.rows != active.NumRows() {
		img, err := tailImage(t.cols, active)
		if err != nil {
			return nil, err
		}
		if a.img != nil {
			t.tailIO.Add(a.img.Stats())
		}
		a.gen, a.rows, a.img = gen, active.NumRows(), img
	}
	return append(parts, t.active.img), nil
}

// image returns the entry's column image, building it on first use.
func (e *sealedEntry) image(cols []Column) (*colstore.Reader, error) {
	e.imgMu.Lock()
	defer e.imgMu.Unlock()
	if e.img == nil {
		img, err := tailImage(cols, e.mem)
		if err != nil {
			return nil, err
		}
		e.img = img
	}
	return e.img, nil
}

// built returns the entry's column image if a query built one.
func (e *sealedEntry) built() *colstore.Reader {
	e.imgMu.Lock()
	defer e.imgMu.Unlock()
	return e.img
}

// retire folds a dropped tail image's IO counters into the table's
// running total. Queries still scanning the image keep it alive; what
// they read after this point is not counted.
func (t *Table) retire(img *colstore.Reader) {
	if img == nil {
		return
	}
	t.tailMu.Lock()
	t.tailIO.Add(img.Stats())
	t.tailMu.Unlock()
}

// tailImage writes a memtable once as an uncompressed PLAIN column file
// into memory and opens it, so the tail is scanned by the same filters,
// zone maps and gathers as a shard. It carries page zone maps like every
// file, though the image of a busy active buffer is rebuilt for every
// query: on the benchmark's ingest workload (10 alternating pairs against
// an image without page statistics, 2 vCPUs) building them moved no
// end-to-end metric — median pass 12.34 ms against 12.58 ms, whose
// quartiles were 11.90–12.98 ms. The image is never persisted: the rows it holds are durable in the WAL, and it is
// rebuilt from the memtable whenever it is needed again.
func tailImage(cols []Column, mem *memtable.ColumnTable) (*colstore.Reader, error) {
	schema := colstore.Schema{Columns: make([]colstore.Column, len(cols))}
	data := make([]colstore.ColumnData, len(cols))
	for i, c := range cols {
		col := colstore.Column{Name: c.Name, Encoding: encoding.KindPlain}
		switch c.Type {
		case memtable.ColInt64:
			col.Type, data[i].Ints = colstore.TypeInt64, mem.Ints(i)
		case memtable.ColFloat64:
			col.Type, data[i].Floats = colstore.TypeFloat64, mem.Floats(i)
		case memtable.ColBinary:
			bins := mem.Binaries(i)
			strs := make([][]byte, len(bins))
			for j, b := range bins {
				strs[j] = b
			}
			col.Type, data[i].Strings = colstore.TypeString, strs
		}
		schema.Columns[i] = col
	}
	fsys := vfs.NewMemFS()
	if err := colstore.WriteFileFS(fsys, "tail", schema, data, colstore.Options{}); err != nil {
		return nil, fmt.Errorf("shard: tail image: %w", err)
	}
	return colstore.OpenFS(fsys, "tail")
}

// statReaders lists every reader currently serving queries: live shards
// and the tail images already built (none is built for the asking).
func (t *Table) statReaders() []*colstore.Reader {
	t.mu.Lock()
	var rs []*colstore.Reader
	for _, h := range t.shards {
		rs = append(rs, h.r)
	}
	sealed := append([]*sealedEntry(nil), t.sealedQ...)
	t.mu.Unlock()
	for _, e := range sealed {
		if img := e.built(); img != nil {
			rs = append(rs, img)
		}
	}
	t.tailMu.Lock()
	defer t.tailMu.Unlock()
	if t.active.img != nil {
		rs = append(rs, t.active.img)
	}
	return rs
}

// IOStats sums the IO counters of every reader the table has served
// queries from: live shards, cached tail images, and retired ones.
func (t *Table) IOStats() obs.IOStats {
	var sum obs.IOStats
	for _, r := range t.statReaders() {
		sum.Add(r.Stats())
	}
	t.tailMu.Lock()
	defer t.tailMu.Unlock()
	sum.Add(t.tailIO)
	return sum
}

// ResetIOStats zeroes the counters IOStats sums.
func (t *Table) ResetIOStats() {
	for _, r := range t.statReaders() {
		r.ResetStats()
	}
	t.tailMu.Lock()
	defer t.tailMu.Unlock()
	t.tailIO = obs.IOStats{}
}

// ScrubReport is the result of a full integrity scrub.
type ScrubReport struct {
	ManifestSeq uint64
	Shards      int // live shards verified clean
	WalSegments int // non-active segments scrubbed
	WalRecords  int // intact records across them
	WalTorn     int // segments with a torn tail (discarded on recovery)
	Quarantined []QuarantinedShard
}

// Scrub verifies the manifest (reload + checksum), every live shard's
// checksums, and every non-active WAL segment's records. Quarantined
// shards are reported, not failed; corruption in live data is returned
// as an error.
func (t *Table) Scrub(ctx context.Context) (ScrubReport, error) {
	t.mu.Lock()
	shards := append([]*shardHandle(nil), t.shards...)
	rep := ScrubReport{Quarantined: append([]QuarantinedShard(nil), t.quarantined...)}
	activeSeq := t.walSeq
	floor := t.man.WalFloor
	t.mu.Unlock()

	man, err := loadManifest(t.fs, t.dir)
	if err != nil {
		return rep, err
	}
	rep.ManifestSeq = man.Seq
	for _, h := range shards {
		if err := h.r.Verify(ctx); err != nil {
			return rep, fmt.Errorf("shard %s: %w", h.meta.File, err)
		}
		rep.Shards++
	}
	entries, err := t.fs.ReadDir(t.dir)
	if err != nil {
		return rep, err
	}
	for _, name := range entries {
		seq, ok := wal.ParseSegmentName(name)
		if !ok || seq < floor || seq == activeSeq {
			continue // dead (pre-floor) or being written right now
		}
		res, err := wal.Scrub(t.fs, join(t.dir, name))
		if err != nil {
			return rep, fmt.Errorf("wal %s: %w", name, err)
		}
		rep.WalSegments++
		rep.WalRecords += res.Records
		if res.Torn {
			rep.WalTorn++
		}
	}
	return rep, nil
}

// Close stops the flusher and releases the WAL and shard readers.
// Sealed-but-unflushed memtables are NOT flushed: their rows are
// already durable in the WAL and replay on the next open (fast, crash-
// equivalent shutdown).
func (t *Table) Close() error {
	t.epochMu.Lock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.epochMu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	w := t.w
	t.w = nil
	t.mu.Unlock()
	t.epochMu.Unlock()
	<-t.flusherDone

	var first error
	if w != nil {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.closeShardsLocked(); err != nil && first == nil {
		first = err
	}
	return first
}

func (t *Table) closeShardsLocked() error {
	var first error
	for _, h := range t.shards {
		if err := h.r.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.shards = nil
	return first
}
