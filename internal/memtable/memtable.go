// Package memtable provides CodecDB's in-memory result structures (paper
// §5.1): typed columnar mem tables, row-oriented mem tables, and the
// zero-copy Binary value. Binary fields are {pointer, length} views into a
// decode buffer, so moving string values between mem tables copies slice
// headers, never bytes.
package memtable

import (
	"bytes"
	"fmt"
)

// Binary is a zero-copy byte-string value: a view into a decoded page or
// dictionary buffer. The underlying bytes must not be mutated.
type Binary []byte

// String renders the binary for debugging.
func (b Binary) String() string { return string(b) }

// Equal reports byte equality.
func (b Binary) Equal(o Binary) bool { return bytes.Equal(b, o) }

// Compare is bytes.Compare.
func (b Binary) Compare(o Binary) int { return bytes.Compare(b, o) }

// ColType is a mem-table column type.
type ColType uint8

// Mem-table column types (§5.1: int32/int64/float/double collapse onto
// int64/float64 in this port, plus variable-length binary).
const (
	ColInt64 ColType = iota
	ColFloat64
	ColBinary
)

// String returns the type name.
func (t ColType) String() string {
	switch t {
	case ColInt64:
		return "int64"
	case ColFloat64:
		return "float64"
	case ColBinary:
		return "binary"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// ColumnTable is a columnar mem table. Columns are append-only and must be
// kept rectangular by the caller appending one value per column per row.
type ColumnTable struct {
	names []string
	types []ColType
	ints  map[int][]int64
	flts  map[int][]float64
	bins  map[int][]Binary
	rows  int
}

// NewColumnTable creates a table with the given column names and types.
func NewColumnTable(names []string, types []ColType) *ColumnTable {
	if len(names) != len(types) {
		panic("memtable: names/types length mismatch")
	}
	t := &ColumnTable{
		names: names, types: types,
		ints: map[int][]int64{}, flts: map[int][]float64{}, bins: map[int][]Binary{},
	}
	return t
}

// NumCols returns the column count.
func (t *ColumnTable) NumCols() int { return len(t.names) }

// NumRows returns the row count.
func (t *ColumnTable) NumRows() int { return t.rows }

// Names returns the column names.
func (t *ColumnTable) Names() []string { return t.names }

// ColIndex returns the index of the named column, or -1.
func (t *ColumnTable) ColIndex(name string) int {
	for i, n := range t.names {
		if n == name {
			return i
		}
	}
	return -1
}

// AppendRow appends one row; vals must match the schema (int64, float64,
// or Binary/[]byte per column).
func (t *ColumnTable) AppendRow(vals ...any) {
	if len(vals) != len(t.types) {
		panic(fmt.Sprintf("memtable: %d values for %d columns", len(vals), len(t.types)))
	}
	for i, v := range vals {
		switch t.types[i] {
		case ColInt64:
			t.ints[i] = append(t.ints[i], v.(int64))
		case ColFloat64:
			t.flts[i] = append(t.flts[i], v.(float64))
		case ColBinary:
			switch b := v.(type) {
			case Binary:
				t.bins[i] = append(t.bins[i], b)
			case []byte:
				t.bins[i] = append(t.bins[i], Binary(b))
			default:
				panic(fmt.Sprintf("memtable: column %d wants binary, got %T", i, v))
			}
		}
	}
	t.rows++
}

// SetIntColumn installs a whole int column (bulk load).
func (t *ColumnTable) SetIntColumn(i int, vals []int64) {
	t.checkType(i, ColInt64)
	t.ints[i] = vals
	t.rows = len(vals)
}

// SetBinaryColumn installs a whole binary column; the slices are adopted
// zero-copy.
func (t *ColumnTable) SetBinaryColumn(i int, vals [][]byte) {
	t.checkType(i, ColBinary)
	col := make([]Binary, len(vals))
	for j, v := range vals {
		col[j] = Binary(v)
	}
	t.bins[i] = col
	t.rows = len(vals)
}

// Ints returns the int column i.
func (t *ColumnTable) Ints(i int) []int64 {
	t.checkType(i, ColInt64)
	return t.ints[i]
}

// Floats returns the float column i.
func (t *ColumnTable) Floats(i int) []float64 {
	t.checkType(i, ColFloat64)
	return t.flts[i]
}

// Binaries returns the binary column i.
func (t *ColumnTable) Binaries(i int) []Binary {
	t.checkType(i, ColBinary)
	return t.bins[i]
}

// Value returns the value at (row, col) boxed as any.
func (t *ColumnTable) Value(row, col int) any {
	switch t.types[col] {
	case ColInt64:
		return t.ints[col][row]
	case ColFloat64:
		return t.flts[col][row]
	default:
		return t.bins[col][row]
	}
}

// SizeBytes estimates the table's memory footprint: 8 bytes per numeric
// value and slice-header cost (not payload — payload is shared zero-copy)
// plus payload for binaries, matching how the paper accounts intermediate
// results.
func (t *ColumnTable) SizeBytes() int {
	total := 0
	for i := range t.types {
		switch t.types[i] {
		case ColInt64:
			total += 8 * len(t.ints[i])
		case ColFloat64:
			total += 8 * len(t.flts[i])
		case ColBinary:
			total += 16 * len(t.bins[i]) // {ptr,len} views only
		}
	}
	return total
}

func (t *ColumnTable) checkType(i int, want ColType) {
	if t.types[i] != want {
		panic(fmt.Sprintf("memtable: column %d is %v, not %v", i, t.types[i], want))
	}
}

// RowTable is a row-oriented mem table for small results (e.g. final
// aggregation output headed to the client).
type RowTable struct {
	names []string
	types []ColType
	rows  [][]any
}

// NewRowTable creates a row table with the given schema.
func NewRowTable(names []string, types []ColType) *RowTable {
	if len(names) != len(types) {
		panic("memtable: names/types length mismatch")
	}
	return &RowTable{names: names, types: types}
}

// Append adds one row.
func (t *RowTable) Append(vals ...any) {
	if len(vals) != len(t.types) {
		panic("memtable: row arity mismatch")
	}
	row := make([]any, len(vals))
	copy(row, vals)
	t.rows = append(t.rows, row)
}

// NumRows returns the row count.
func (t *RowTable) NumRows() int { return len(t.rows) }

// Names returns the column names.
func (t *RowTable) Names() []string { return t.names }

// Row returns row i.
func (t *RowTable) Row(i int) []any { return t.rows[i] }

// Rows returns all rows.
func (t *RowTable) Rows() [][]any { return t.rows }
