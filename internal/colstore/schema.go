// Package colstore implements CodecDB's Parquet-like columnar file format
// (paper §2, §3): a file holds row groups (horizontal partitions), each row
// group holds one column chunk per column, and each column chunk is split
// into data pages that are encoded and compressed independently. The
// footer carries enough metadata — per-page row ranges, sizes, statistics,
// encodings, and global dictionaries — for readers to skip data at the
// block, page, and row level (§5.2) and for the query engine to operate on
// encoded bytes in place (§5.3).
package colstore

import (
	"encoding/json"
	"errors"
	"fmt"

	"codecdb/internal/encoding"
)

// Magic bytes framing every CodecDB column file: MagicV1 frames legacy
// checksum-less files, MagicV2 frames files with page/footer checksums.
var (
	Magic   = []byte("CDB1") // format version 1 (kept for compatibility)
	MagicV2 = []byte("CDB2") // format version 2: CRC32-C checksums
)

// Type is a column's logical type.
type Type uint8

// Supported column types. The paper's evaluation focuses on integer and
// string columns (§6.1); float columns are stored plain.
const (
	TypeInt64 Type = iota
	TypeFloat64
	TypeString
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "INT64"
	case TypeFloat64:
		return "FLOAT64"
	case TypeString:
		return "STRING"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Column describes one column of a table.
type Column struct {
	Name string `json:"name"`
	Type Type   `json:"type"`
	// Encoding is the scheme used for this column's pages.
	Encoding encoding.Kind `json:"encoding"`
	// Compression names the page-level byte compressor ("none", "snappy",
	// "gzip").
	Compression string `json:"compression,omitempty"`
	// DictGroup joins columns that must share one order-preserving global
	// dictionary (e.g. commit/receipt date columns compared against each
	// other, §5.3). Empty means a private dictionary.
	DictGroup string `json:"dictGroup,omitempty"`
}

// Schema is an ordered set of columns.
type Schema struct {
	Columns []Column `json:"columns"`
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PageMeta locates and describes one data page.
type PageMeta struct {
	Offset           int64 `json:"offset"`
	CompressedSize   int32 `json:"compressedSize"`
	UncompressedSize int32 `json:"uncompressedSize"`
	NumValues        int32 `json:"numValues"`
	FirstRow         int64 `json:"firstRow"` // row index within the row group
	// Crc32C is the CRC32-Castagnoli of the stored (compressed) page
	// bytes; zero in format-v1 files, which carry no checksums.
	Crc32C uint32 `json:"crc32c,omitempty"`
	// Stats carries the page's packed-domain zone map (format v2.1). Nil
	// in v1/v2 files and for float pages; a nil zone map simply never
	// prunes.
	Stats *PageStats `json:"stats,omitempty"`
}

// PageStats is a page-level zone map in the *packed* domain — the domain
// the in-situ scan kernels compare in, so pruning decisions need no
// decoding and no dictionary probe beyond the one the predicate rewrite
// already did:
//
//   - dictionary pages (DICTIONARY / DICTIONARY_RLE): Min/Max/Distinct
//     range over the global dictionary keys stored in the page;
//   - integer pages of every other encoding: Min/Max/Distinct range over
//     zigzag(value). Zigzag is a bijection, so equality pruning is always
//     sound; order pruning additionally requires the chunk to be
//     non-negative (chunk stats MinInt >= 0), where zigzag is monotone;
//   - string pages without a dictionary: MinStr/MaxStr bound the raw
//     bytes and Distinct counts distinct values; Min/Max are unused.
type PageStats struct {
	Min uint64 `json:"min"`
	Max uint64 `json:"max"`
	// Distinct is the number of distinct packed entries (dictionary keys
	// or zigzag values) in the page; 0 for an empty page.
	Distinct int32  `json:"distinct,omitempty"`
	MinStr   string `json:"minStr,omitempty"`
	MaxStr   string `json:"maxStr,omitempty"`
}

// ChunkStats carries per-chunk statistics used for predicate rewriting and
// chunk pruning.
type ChunkStats struct {
	MinInt   int64  `json:"minInt,omitempty"`
	MaxInt   int64  `json:"maxInt,omitempty"`
	MinStr   string `json:"minStr,omitempty"`
	MaxStr   string `json:"maxStr,omitempty"`
	NonEmpty int64  `json:"nonEmpty"`
}

// ChunkMeta describes one column chunk within a row group.
type ChunkMeta struct {
	Pages []PageMeta `json:"pages"`
	Stats ChunkStats `json:"stats"`
}

// RowGroupMeta describes one row group.
type RowGroupMeta struct {
	NumRows int64       `json:"numRows"`
	Chunks  []ChunkMeta `json:"chunks"` // parallel to Schema.Columns
}

// DictMeta locates a serialized global dictionary.
type DictMeta struct {
	Offset int64 `json:"offset"`
	Size   int32 `json:"size"`
	// KeyWidth is the bit width of dictionary keys in every page of the
	// columns using this dictionary.
	KeyWidth uint8 `json:"keyWidth"`
	// NumEntries is the dictionary cardinality.
	NumEntries int32 `json:"numEntries"`
	// Type distinguishes int and string dictionaries.
	Type Type `json:"type"`
	// Crc32C is the CRC32-Castagnoli of the serialized dictionary blob;
	// zero in format-v1 files.
	Crc32C uint32 `json:"crc32c,omitempty"`
}

// FileMeta is the footer persisted at the end of every file. It is the
// on-disk form of the encoding metadata CodecDB "persists on disk as a
// plain text file and maintains in memory as a hashmap" (§3) — we keep it
// as JSON inside the file footer plus the in-memory maps on Reader.
type FileMeta struct {
	// Version is the format version (FormatV1/FormatV2); absent in files
	// written before versioning, which are treated as FormatV1.
	Version   int                 `json:"version,omitempty"`
	Schema    Schema              `json:"schema"`
	NumRows   int64               `json:"numRows"`
	RowGroups []RowGroupMeta      `json:"rowGroups"`
	Dicts     map[string]DictMeta `json:"dicts,omitempty"` // by dict group name
}

// checksummed reports whether pages and dictionaries carry checksums.
func (m *FileMeta) checksummed() bool { return m.Version >= FormatV2 }

func (m *FileMeta) marshal() ([]byte, error) { return json.Marshal(m) }

func unmarshalMeta(b []byte) (*FileMeta, error) {
	var m FileMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("colstore: corrupt footer: %w", err)
	}
	return &m, nil
}

// ErrFormat reports a structurally invalid file.
var ErrFormat = errors.New("colstore: not a CodecDB column file")

// dictGroupOf returns the effective dictionary group name for column i:
// the explicit group or a private per-column group.
func dictGroupOf(c Column, i int) string {
	if c.DictGroup != "" {
		return c.DictGroup
	}
	return fmt.Sprintf("__col%d", i)
}

// HasDict reports whether the column's pages store dictionary keys.
func (c *Column) HasDict() bool { return usesDict(c.Encoding) }

// usesDict reports whether the column's encoding stores dictionary keys in
// its pages.
func usesDict(k encoding.Kind) bool {
	return k == encoding.KindDict || k == encoding.KindDictRLE
}
