package colstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"codecdb/internal/encoding"
)

// writeSmallTable produces a compact valid file for corruption tests.
func writeSmallTable(t testing.TB, opts Options) string {
	t.Helper()
	n := 500
	ints := make([]int64, n)
	strs := make([][]byte, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(i % 9)
		strs[i] = []byte{byte('a' + i%5)}
	}
	schema := Schema{Columns: []Column{
		{Name: "v", Type: TypeInt64, Encoding: encoding.KindDict},
		{Name: "s", Type: TypeString, Encoding: encoding.KindDict},
	}}
	path := filepath.Join(t.TempDir(), "t.cdb")
	if opts.PageRows == 0 {
		opts.PageRows = 128
	}
	if err := WriteFile(path, schema, []ColumnData{{Ints: ints}, {Strings: strs}}, opts); err != nil {
		t.Fatal(err)
	}
	return path
}

// readEverything opens every chunk, dictionary, and packed page, returning
// the first error.
func readEverything(r *Reader) error {
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		if _, err := r.Chunk(rg, 0).Ints(); err != nil {
			return err
		}
		if _, err := r.Chunk(rg, 1).Strings(); err != nil {
			return err
		}
		if _, err := r.Chunk(rg, 0).PackedPages(); err != nil {
			return err
		}
	}
	if _, err := r.IntDict(0); err != nil {
		return err
	}
	if _, err := r.StrDict(1); err != nil {
		return err
	}
	return nil
}

// TestTruncatedFilesNeverPanic opens and fully reads every truncation of
// a valid file: each must fail cleanly or succeed, never crash.
func TestTruncatedFilesNeverPanic(t *testing.T) {
	path := writeSmallTable(t, Options{})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	step := len(orig)/40 + 1
	for cut := 0; cut < len(orig); cut += step {
		trunc := filepath.Join(dir, "trunc.cdb")
		if err := os.WriteFile(trunc, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", cut, r)
				}
			}()
			r, err := Open(trunc)
			if err != nil {
				return // clean rejection
			}
			defer r.Close()
			readEverything(r)
		}()
	}
}

// TestBitFlippedPagesDetected upgrades the old "no panic" contract to
// detection: a bit flipped anywhere inside a data page or dictionary blob
// of a checksummed file must surface as a *CorruptionError naming the
// corrupted object — never a panic, a hang, or silently wrong data.
func TestBitFlippedPagesDetected(t *testing.T) {
	path := writeSmallTable(t, Options{})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the extents of every page and dictionary blob from the
	// footer of the pristine file.
	clean, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	type extent struct {
		off, size int64
		page      bool
	}
	var extents []extent
	meta := clean.Meta()
	for _, rg := range meta.RowGroups {
		for _, ch := range rg.Chunks {
			for _, p := range ch.Pages {
				if p.CompressedSize > 0 {
					extents = append(extents, extent{p.Offset, int64(p.CompressedSize), true})
				}
			}
		}
	}
	for _, d := range meta.Dicts {
		if d.Size > 0 {
			extents = append(extents, extent{d.Offset, int64(d.Size), false})
		}
	}
	clean.Close()
	if len(extents) < 3 {
		t.Fatalf("test table too small: %d extents", len(extents))
	}

	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	for i, ext := range extents {
		// Flip one random bit inside the extent.
		mut := append([]byte(nil), orig...)
		pos := ext.off + rng.Int63n(ext.size)
		mut[pos] ^= byte(1 << rng.Intn(8))
		f := filepath.Join(dir, "mut.cdb")
		if err := os.WriteFile(f, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(f)
		if err != nil {
			t.Fatalf("extent %d: Open failed (flip was inside data, not footer): %v", i, err)
		}
		err = readEverything(r)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("extent %d (page=%v, byte %d): read = %v, want *CorruptionError",
				i, ext.page, pos, err)
		}
		if ce.Path != f || ce.Detail == "" {
			t.Fatalf("extent %d: incomplete CorruptionError: %+v", i, ce)
		}
		if ext.page && (ce.RowGroup < 0 || ce.Page < 0 || ce.Column == "") {
			t.Fatalf("extent %d: page corruption not located: %+v", i, ce)
		}
		r.Close()
	}
}

// TestVerifyScrubFindsCorruption checks the whole-file scrub: clean files
// verify, and a single flipped bit anywhere in the data region is found
// without decoding anything.
func TestVerifyScrubFindsCorruption(t *testing.T) {
	path := writeSmallTable(t, Options{})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(t.Context()); err != nil {
		t.Fatalf("clean file failed scrub: %v", err)
	}
	r.Close()

	orig, _ := os.ReadFile(path)
	mut := append([]byte(nil), orig...)
	mut[len(mut)/3] ^= 0x10 // somewhere in the data region
	bad := filepath.Join(t.TempDir(), "bad.cdb")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	rb, err := Open(bad)
	if err != nil {
		return // flip hit something Open itself validates — also fine
	}
	defer rb.Close()
	err = rb.Verify(t.Context())
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Verify = %v, want *CorruptionError", err)
	}
}

// tailLen is the size of a file's tail: u32 footer length, u32 footer
// CRC32-C, the "CDB2" magic.
const tailLen = 12

// splitFile cuts a file into its body (head magic through the last data
// blob) and its footer; ok is false when b has no well-formed tail.
func splitFile(b []byte) (body, footer []byte, ok bool) {
	if len(b) < len(MagicV2)+tailLen || string(b[len(b)-len(MagicV2):]) != string(MagicV2) {
		return nil, nil, false
	}
	end := len(b) - tailLen
	n := int(binary.LittleEndian.Uint32(b[end:]))
	if n <= 0 || n > end {
		return nil, nil, false
	}
	return b[:end-n], b[end-n : end], true
}

// sealFile frames body and footer as a file: footer | u32 len |
// u32 crc32c(footer) | "CDB2".
func sealFile(body, footer []byte) []byte {
	out := append(append([]byte(nil), body...), footer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	out = binary.LittleEndian.AppendUint32(out, Checksum(footer))
	return append(out, MagicV2...)
}

// TestOpenRejectsRetiredFormats checks that Open reads one format: a file
// framed with the retired "CDB1" magic, and a "CDB2" file whose footer
// claims version 1 or 2, each fail with ErrFormat and never panic.
func TestOpenRejectsRetiredFormats(t *testing.T) {
	orig, err := os.ReadFile(writeSmallTable(t, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	body, footer, ok := splitFile(orig)
	if !ok {
		t.Fatal("written file has no tail")
	}
	footerWith := func(version int) []byte {
		var m FileMeta
		if err := json.Unmarshal(footer, &m); err != nil {
			t.Fatal(err)
		}
		m.Version = version
		f, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// The "CDB1" layout: no checksums, no footer version, and a tail of
	// footer | u32 len | magic.
	v0 := footerWith(0)
	cdb1 := append([]byte("CDB1"), body[len(MagicV2):]...)
	cdb1 = append(cdb1, v0...)
	cdb1 = binary.LittleEndian.AppendUint32(cdb1, uint32(len(v0)))
	cdb1 = append(cdb1, "CDB1"...)
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"CDB1", cdb1},
		{"footer-v1", sealFile(body, footerWith(1))},
		{"footer-v2", sealFile(body, footerWith(2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "old.cdb")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(path)
			if err == nil {
				r.Close()
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Open = %v, want ErrFormat", err)
			}
		})
	}
}

// TestBitFlippedPagesNeverPanic retains the blanket safety net: arbitrary
// flips anywhere in the file (including the footer region) must never
// crash, whatever else they do.
func TestBitFlippedPagesNeverPanic(t *testing.T) {
	path := writeSmallTable(t, Options{})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	dir := t.TempDir()
	for trial := 0; trial < 60; trial++ {
		mut := append([]byte(nil), orig...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			pos := rng.Intn(len(mut))
			mut[pos] ^= byte(1 << rng.Intn(8))
		}
		f := filepath.Join(dir, "mut.cdb")
		if err := os.WriteFile(f, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on bit-flipped file (trial %d): %v\n%s", trial, r, debug.Stack())
				}
			}()
			r, err := Open(f)
			if err != nil {
				return
			}
			defer r.Close()
			readEverything(r)
		}()
	}
}

// TestCorruptFooterRejected mangles the JSON footer specifically.
func TestCorruptFooterRejected(t *testing.T) {
	path := writeSmallTable(t, Options{})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The footer sits just before the trailing len+crc+magic (12 bytes).
	mut := append([]byte(nil), orig...)
	for i := len(mut) - 34; i < len(mut)-13; i++ {
		mut[i] = '!'
	}
	f := filepath.Join(t.TempDir(), "bad.cdb")
	if err := os.WriteFile(f, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Fatal("mangled footer should be rejected")
	}
}

// TestConcurrentReaders exercises the reader's concurrency contract: many
// goroutines reading chunks, dictionaries, and packed pages at once.
func TestConcurrentReaders(t *testing.T) {
	path := writeSmallTable(t, Options{})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := r.Chunk(0, 0).Ints(); err != nil {
					done <- err
					return
				}
				if _, err := r.StrDict(1); err != nil {
					done <- err
					return
				}
				if _, err := r.Chunk(0, 1).PackedPages(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
