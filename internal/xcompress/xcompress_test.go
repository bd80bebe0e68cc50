package xcompress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func compressors() []Compressor {
	return []Compressor{Snappy{}, Gzip{}, None{}}
}

// roundTripFixtures are the payloads every codec must round-trip; the
// fuzzers start from their compressed forms.
func roundTripFixtures() map[string][]byte {
	fixtures := map[string][]byte{
		"empty":      {},
		"single":     {0x42},
		"repetitive": bytes.Repeat([]byte("abcabcabc"), 500),
		"runs":       bytes.Repeat([]byte{0}, 10000),
		"text": []byte(strings.Repeat(
			"the quick brown fox jumps over the lazy dog. ", 200)),
		"short": []byte("xy"),
	}
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 4096)
	rng.Read(random)
	fixtures["random"] = random
	return fixtures
}

func TestRoundTripFixtures(t *testing.T) {
	for _, c := range compressors() {
		for name, data := range roundTripFixtures() {
			comp, err := c.Compress(data)
			if err != nil {
				t.Fatalf("%s/%s compress: %v", c.Name(), name, err)
			}
			got, err := c.Decompress(comp)
			if err != nil {
				t.Fatalf("%s/%s decompress: %v", c.Name(), name, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%s round trip mismatch: %d vs %d bytes", c.Name(), name, len(got), len(data))
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, c := range compressors() {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Intn(5000)
			data := make([]byte, n)
			// Mix of random and repetitive sections exercises both
			// literal and copy paths.
			for i := 0; i < n; {
				if rng.Intn(2) == 0 {
					l := 1 + rng.Intn(50)
					b := byte(rng.Intn(4))
					for j := i; j < i+l && j < n; j++ {
						data[j] = b
					}
					i += l
				} else {
					data[i] = byte(rng.Intn(256))
					i++
				}
			}
			comp, err := c.Compress(data)
			if err != nil {
				return false
			}
			got, err := c.Decompress(comp)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestSnappyCompressesRepetitiveData(t *testing.T) {
	data := bytes.Repeat([]byte("SHIPMODE=TRUCK;"), 1000)
	comp, _ := Snappy{}.Compress(data)
	if len(comp)*10 > len(data) {
		t.Fatalf("snappy should compress repetitive data ≥10x: %d -> %d", len(data), len(comp))
	}
}

func TestGzipBeatsSnappyOnText(t *testing.T) {
	// The defining trade-off: gzip's entropy stage wins on ratio.
	rng := rand.New(rand.NewSource(9))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	data := []byte(sb.String())
	s, _ := Snappy{}.Compress(data)
	g, _ := Gzip{}.Compress(data)
	if len(g) >= len(s) {
		t.Fatalf("gzip (%d) should beat snappy (%d) on ratio", len(g), len(s))
	}
}

func TestSnappyCorruptInput(t *testing.T) {
	data := []byte("hello hello hello hello hello hello")
	comp, _ := Snappy{}.Compress(data)
	for cut := 0; cut < len(comp); cut++ {
		if _, err := (Snappy{}).Decompress(comp[:cut]); err == nil && cut < len(comp) {
			// Some prefixes decode cleanly only if they are complete; a
			// complete decode must match a prefix of the input length claim,
			// which the length check rejects. So err == nil is a bug.
			t.Fatalf("truncated input at %d decoded without error", cut)
		}
	}
	if _, err := (Snappy{}).Decompress(nil); err == nil {
		t.Fatal("empty buffer should be corrupt")
	}
	// Copy with offset past the start must error, not panic.
	bad := []byte{4, 0x01, 0xFF} // len 4, copy1 with big offset
	if _, err := (Snappy{}).Decompress(bad); err == nil {
		t.Fatal("out-of-range back-reference should error")
	}
}

// TestSnappyOversizedHeader: the length header is untrusted. A claim no
// tag stream of this size can produce must be rejected before it sizes
// the output (header 2^40 plus a literal tag ran the process out of
// memory; 2^62 panicked in makeslice).
func TestSnappyOversizedHeader(t *testing.T) {
	for _, n := range []uint64{1 << 40, 1 << 62} {
		for _, tags := range [][]byte{{0}, {0, 'x'}} { // a 1-byte literal, without and with its byte
			block := append(binary.AppendUvarint(nil, n), tags...)
			if _, err := (Snappy{}).DecompressInto(make([]byte, 0, 64), block); !errors.Is(err, errSnappyCorrupt) {
				t.Fatalf("%d-byte block with header %d: got %v, want errSnappyCorrupt", len(block), n, err)
			}
		}
	}
}

func TestSnappyOverlappingCopy(t *testing.T) {
	// "aaaa..." forces offset < length back-references.
	data := bytes.Repeat([]byte{'a'}, 1000)
	comp, _ := Snappy{}.Compress(data)
	got, err := Snappy{}.Decompress(comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("overlapping copy round trip failed: %v", err)
	}
}

func TestForRegistry(t *testing.T) {
	for _, name := range []string{"snappy", "gzip", "none", ""} {
		if _, err := For(name); err != nil {
			t.Fatalf("For(%q): %v", name, err)
		}
	}
	if _, err := For("lz4"); err == nil {
		t.Fatal("unknown compressor should error")
	}
}
