// Package wal is the write-ahead log behind CodecDB's crash-safe
// ingestion path. A table owns a sequence of segment files; every
// acknowledged append is a CRC32-C-protected record fsynced into the
// live segment before the ack, so after any crash the memtable's
// contents can be reconstructed exactly by replaying segments.
//
// Segment layout (FORMAT.md "WAL segment"):
//
//	"CDBW" | u32 version | u64 seq          — 16-byte header
//	{ u32 len | u32 crc32c(payload) | payload }*   — records
//
// All integers are little-endian. A crash mid-append leaves a torn
// tail: a truncated header, a length pointing past EOF, or a payload
// failing its checksum. Replay stops cleanly at the first such record —
// torn bytes were never acknowledged, so discarding them loses nothing.
//
// Appends are group-committed: concurrent appenders coalesce into
// batches, each batch is written and fsynced once, and every appender
// in the batch unblocks after the shared fsync — one disk barrier per
// batch, not per row.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"codecdb/internal/obs"
	"codecdb/internal/vfs"
)

// Magic begins every WAL segment.
var Magic = []byte("CDBW")

// Version is the current segment format version.
const Version = 1

// headerSize is magic + version + seq.
const headerSize = 4 + 4 + 8

// recordOverhead is the per-record framing: length + checksum.
const recordOverhead = 8

// castagnoli matches the colstore file checksums (CRC32-C).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBroken is returned by Append after a write or sync failure: the
// segment tail is in an unknown state, so nothing more may be appended
// to this segment (rotate to a fresh one instead).
var ErrBroken = errors.New("wal: segment broken by earlier write failure")

var (
	walAppends = obs.Default().Counter(
		"codecdb_wal_appends_total", "WAL records acknowledged (durably appended).")
	walFsyncs = obs.Default().Counter(
		"codecdb_wal_fsyncs_total", "WAL fsync barriers issued (group commit batches).")
	walRecovered = obs.Default().Counter(
		"codecdb_wal_recovered_records_total", "WAL records replayed during recovery.")
	// walFsyncSeconds buckets are finer than DefBuckets at the low end:
	// a group-commit fsync on a local SSD lands in the tens of
	// microseconds, and the histogram is the evidence when it does not.
	walFsyncSeconds = obs.Default().Histogram(
		"codecdb_wal_fsync_seconds", "WAL fsync barrier latency in seconds.",
		[]float64{10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
			1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 500e-3, 1})
)

// SegmentName renders the file name of segment seq.
func SegmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// ParseSegmentName extracts the sequence number from a segment file
// name; ok is false for non-segment names.
func ParseSegmentName(name string) (seq uint64, ok bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "wal-%08d.log", &n); err != nil {
		return 0, false
	}
	return n, name == SegmentName(n)
}

// Writer appends records to one segment file with group commit.
type Writer struct {
	mu      sync.Mutex
	f       vfs.WFile
	seq     uint64
	broken  error
	pending []byte       // encoded records awaiting the next batch write
	waiters []chan error // one per pending appender
	leading bool         // a leader is currently writing a batch
	cond    *sync.Cond
}

// Create starts a new segment at path with the given sequence number.
// The header is written immediately but only made durable by the first
// append's fsync (an empty segment that vanishes in a crash is
// indistinguishable from one never created — both are fine).
func Create(fsys vfs.FS, path string, seq uint64) (*Writer, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	var hdr [headerSize]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{f: f, seq: seq}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// Seq returns the segment's sequence number.
func (w *Writer) Seq() uint64 { return w.seq }

// Broken reports the sticky error that poisoned this segment, or nil.
func (w *Writer) Broken() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// appendRecord frames payload into buf.
func appendRecord(buf, payload []byte) []byte {
	var hdr [recordOverhead]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Append durably appends one record: it returns nil only after the
// record and everything before it in the segment has been fsynced.
// Concurrent appenders share batches — the first appender to arrive
// becomes the batch leader, writes every record queued while it waited,
// and issues one fsync for all of them.
func (w *Writer) Append(payload []byte) error {
	w.mu.Lock()
	if w.broken != nil {
		w.mu.Unlock()
		return w.broken
	}
	w.pending = appendRecord(w.pending, payload)
	done := make(chan error, 1)
	w.waiters = append(w.waiters, done)
	if w.leading {
		// A leader is mid-write; it (or a successor) will pick this
		// record up in the next batch.
		w.mu.Unlock()
		return <-done
	}
	w.leading = true
	for len(w.waiters) > 0 {
		buf, waiters := w.pending, w.waiters
		w.pending, w.waiters = nil, nil
		w.mu.Unlock()

		err := w.commit(buf)

		w.mu.Lock()
		if err != nil {
			w.broken = fmt.Errorf("%w (cause: %v)", ErrBroken, err)
		} else {
			walAppends.Add(int64(len(waiters)))
		}
		for _, ch := range waiters {
			ch <- err
		}
		if w.broken != nil {
			// Fail everything queued behind the broken batch too.
			for _, ch := range w.waiters {
				ch <- w.broken
			}
			w.waiters, w.pending = nil, nil
		}
	}
	w.leading = false
	w.mu.Unlock()
	return <-done
}

// commit writes one batch and fsyncs it. Called without the lock held.
func (w *Writer) commit(buf []byte) error {
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	syncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	walFsyncSeconds.ObserveDuration(time.Since(syncStart))
	walFsyncs.Inc()
	return nil
}

// Close closes the segment file without a final sync (everything
// acknowledged is already durable).
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	if w.broken == nil {
		w.broken = errors.New("wal: segment closed")
	}
	return err
}

// ReplayResult summarises one segment replay.
type ReplayResult struct {
	Seq     uint64
	Records int   // intact records delivered
	Torn    bool  // a torn/corrupt tail was discarded
	TornAt  int64 // file offset of the first bad byte (when Torn)
}

// Replay reads the segment at path and calls fn for every intact
// record in order. It stops cleanly — without error — at the first torn
// record (truncated framing, length past EOF, checksum mismatch): that
// suffix was never acknowledged. fn's error aborts the replay and is
// returned. The payload passed to fn is only valid during the call.
func Replay(fsys vfs.FS, path string, fn func(payload []byte) error) (ReplayResult, error) {
	var res ReplayResult
	f, err := fsys.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return res, err
	}
	if size < headerSize {
		// A crash can leave a segment with a torn header; it holds no
		// acknowledged records.
		res.Torn, res.TornAt = size > 0, 0
		return res, nil
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return res, fmt.Errorf("wal: read %s: %w", path, err)
	}
	if string(buf[:4]) != string(Magic) {
		return res, fmt.Errorf("wal: %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != Version {
		return res, fmt.Errorf("wal: %s: unsupported version %d", path, v)
	}
	res.Seq = binary.LittleEndian.Uint64(buf[8:16])
	off := int64(headerSize)
	for off < size {
		if size-off < recordOverhead {
			res.Torn, res.TornAt = true, off
			break
		}
		n := int64(binary.LittleEndian.Uint32(buf[off : off+4]))
		want := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if off+recordOverhead+n > size {
			res.Torn, res.TornAt = true, off
			break
		}
		payload := buf[off+recordOverhead : off+recordOverhead+n]
		if crc32.Checksum(payload, castagnoli) != want {
			res.Torn, res.TornAt = true, off
			break
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return res, err
			}
		}
		res.Records++
		off += recordOverhead + n
	}
	if fn != nil {
		walRecovered.Add(int64(res.Records))
	}
	return res, nil
}

// Scrub verifies the segment at path without delivering records: it
// reports how many intact records it holds and whether a torn tail
// would be discarded on recovery.
func Scrub(fsys vfs.FS, path string) (ReplayResult, error) {
	return Replay(fsys, path, nil)
}
