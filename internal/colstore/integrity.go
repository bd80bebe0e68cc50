package colstore

import (
	"fmt"
	"hash/crc32"
)

// CurrentFormat is the footer version of the one format colstore writes
// and reads ("v2.1", magic "CDB2"): a CRC32-Castagnoli checksum on every
// page, every dictionary blob and the footer, which makes corruption
// detected and reported rather than merely non-fatal, and per-page
// packed-domain statistics in the footer, which let a scan leave
// unselective pages unread, unverified and undecompressed. Open rejects
// every other version with ErrFormat.
const CurrentFormat = 3

// castagnoli is the CRC32-C polynomial table (same polynomial iSCSI and
// Parquet use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the page/dictionary/footer checksum: CRC32-Castagnoli over
// the stored (compressed) bytes, so verification happens before
// decompression touches the data.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// CorruptionError reports a checksum mismatch, naming exactly which part
// of which file failed verification so operators can scrub or restore the
// affected object. RowGroup and Page are -1 for non-page regions (footer,
// dictionary blobs).
type CorruptionError struct {
	Path     string // file path
	Column   string // column name, or dictionary group for dict blobs
	RowGroup int    // row group index, -1 if not a data page
	Page     int    // page index within the chunk, -1 if not a data page
	Detail   string // what failed (e.g. "page checksum mismatch")
}

func (e *CorruptionError) Error() string {
	switch {
	case e.RowGroup >= 0:
		return fmt.Sprintf("colstore: corruption in %s: column %q row group %d page %d: %s",
			e.Path, e.Column, e.RowGroup, e.Page, e.Detail)
	case e.Column != "":
		return fmt.Sprintf("colstore: corruption in %s: dictionary %q: %s", e.Path, e.Column, e.Detail)
	default:
		return fmt.Sprintf("colstore: corruption in %s: %s", e.Path, e.Detail)
	}
}
