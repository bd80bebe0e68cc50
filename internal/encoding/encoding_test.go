package encoding

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// intFixtures covers the shapes the selector distinguishes: sorted, runs,
// low cardinality, negatives, outliers, empty, singleton.
func intFixtures() map[string][]int64 {
	rng := rand.New(rand.NewSource(42))
	sorted := make([]int64, 500)
	for i := range sorted {
		sorted[i] = int64(i * 3)
	}
	runs := make([]int64, 600)
	for i := range runs {
		runs[i] = int64(i / 50)
	}
	lowCard := make([]int64, 400)
	for i := range lowCard {
		lowCard[i] = int64(rng.Intn(5))
	}
	random := make([]int64, 300)
	for i := range random {
		random[i] = rng.Int63n(1 << 40)
	}
	negatives := make([]int64, 200)
	for i := range negatives {
		negatives[i] = rng.Int63n(2000) - 1000
	}
	outliers := make([]int64, 300)
	for i := range outliers {
		outliers[i] = int64(rng.Intn(100))
	}
	outliers[7] = math.MaxInt32
	outliers[250] = math.MinInt32
	return map[string][]int64{
		"sorted":    sorted,
		"runs":      runs,
		"lowCard":   lowCard,
		"random":    random,
		"negatives": negatives,
		"outliers":  outliers,
		"empty":     {},
		"single":    {12345},
		"allZero":   make([]int64, 100),
		"extremes":  {math.MaxInt64 / 2, math.MinInt64 / 2, 0, -1, 1},
	}
}

func stringFixtures() map[string][][]byte {
	rng := rand.New(rand.NewSource(43))
	words := [][]byte{[]byte("MAIL"), []byte("SHIP"), []byte("AIR"), []byte("TRUCK"), []byte("RAIL")}
	lowCard := make([][]byte, 400)
	for i := range lowCard {
		lowCard[i] = words[rng.Intn(len(words))]
	}
	random := make([][]byte, 200)
	for i := range random {
		b := make([]byte, 1+rng.Intn(20))
		rng.Read(b)
		random[i] = b
	}
	withEmpty := [][]byte{[]byte("a"), {}, []byte("bb"), {}, []byte("ccc")}
	return map[string][][]byte{
		"lowCard":   lowCard,
		"random":    random,
		"withEmpty": withEmpty,
		"empty":     {},
		"single":    {[]byte("only")},
	}
}

func TestIntCodecsRoundTrip(t *testing.T) {
	for _, kind := range AllIntKinds() {
		codec, err := IntCodecFor(kind)
		if err != nil {
			t.Fatal(err)
		}
		for name, vals := range intFixtures() {
			if kind == KindBitVector && (name == "random" || name == "extremes") {
				continue // bit vector on high-cardinality data is pathological but still correct; keep fast
			}
			t.Run(fmt.Sprintf("%v/%s", kind, name), func(t *testing.T) {
				buf, err := codec.Encode(vals)
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				got, err := codec.Decode(buf)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if len(got) != len(vals) {
					t.Fatalf("length %d, want %d", len(got), len(vals))
				}
				for i := range vals {
					if got[i] != vals[i] {
						t.Fatalf("value %d: got %d, want %d", i, got[i], vals[i])
					}
				}
			})
		}
	}
}

func TestStringCodecsRoundTrip(t *testing.T) {
	for _, kind := range AllStringKinds() {
		codec, err := StringCodecFor(kind)
		if err != nil {
			t.Fatal(err)
		}
		for name, vals := range stringFixtures() {
			if kind == KindBitVector && name == "random" {
				continue
			}
			t.Run(fmt.Sprintf("%v/%s", kind, name), func(t *testing.T) {
				buf, err := codec.Encode(vals)
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				got, err := codec.Decode(nil, buf)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if len(got) != len(vals) {
					t.Fatalf("length %d, want %d", len(got), len(vals))
				}
				for i := range vals {
					if !bytes.Equal(got[i], vals[i]) {
						t.Fatalf("value %d: got %q, want %q", i, got[i], vals[i])
					}
				}
			})
		}
	}
}

// Property: every integer codec round-trips arbitrary bounded inputs.
func TestIntCodecsRoundTripProperty(t *testing.T) {
	for _, kind := range []Kind{KindPlain, KindBitPacked, KindRLE, KindDelta, KindFOR, KindPFOR, KindDict, KindDictRLE, KindNullSupp} {
		codec, _ := IntCodecFor(kind)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Intn(300)
			vals := make([]int64, n)
			for i := range vals {
				switch rng.Intn(3) {
				case 0:
					vals[i] = int64(rng.Intn(10)) // runs/low card
				case 1:
					vals[i] = rng.Int63() - rng.Int63() // full range
				default:
					if i > 0 {
						vals[i] = vals[i-1] + int64(rng.Intn(5)) // sortedish
					}
				}
			}
			buf, err := codec.Encode(vals)
			if err != nil {
				return false
			}
			got, err := codec.Decode(buf)
			if err != nil {
				return false
			}
			return reflect.DeepEqual(got, append([]int64{}, vals...))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// Property: every string codec round-trips arbitrary inputs.
func TestStringCodecsRoundTripProperty(t *testing.T) {
	for _, kind := range AllStringKinds() {
		codec, _ := StringCodecFor(kind)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Intn(120)
			vals := make([][]byte, n)
			vocab := [][]byte{[]byte("x"), []byte("foo"), []byte("barbaz"), {}}
			for i := range vals {
				if rng.Intn(2) == 0 {
					vals[i] = vocab[rng.Intn(len(vocab))]
				} else {
					b := make([]byte, rng.Intn(12))
					rng.Read(b)
					vals[i] = b
				}
			}
			buf, err := codec.Encode(vals)
			if err != nil {
				return false
			}
			got, err := codec.Decode(nil, buf)
			if err != nil {
				return false
			}
			if len(got) != len(vals) {
				return false
			}
			for i := range vals {
				if !bytes.Equal(got[i], vals[i]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestCorruptInputsReturnErrors(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 100, 200, 1, 1, 1}
	for _, kind := range AllIntKinds() {
		codec, _ := IntCodecFor(kind)
		buf, err := codec.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		// Truncations at every length must error or return fewer values,
		// never panic.
		for cut := 0; cut < len(buf); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v: panic on truncated input at %d: %v", kind, cut, r)
					}
				}()
				got, err := codec.Decode(buf[:cut])
				if err == nil && len(got) == len(vals) {
					same := true
					for i := range vals {
						if got[i] != vals[i] {
							same = false
						}
					}
					if same && cut < len(buf) {
						// Acceptable only if trailing bytes were padding.
						return
					}
				}
			}()
		}
	}
	if _, err := (PlainInt{}).Decode(nil); err == nil {
		t.Fatal("decode of empty buffer should error")
	}
	// A leading count claiming far more values than the bytes after it
	// can hold must fail before it sizes an allocation.
	huge := putUvarint(nil, 1<<40)
	for _, kind := range AllIntKinds() {
		codec, _ := IntCodecFor(kind)
		buf, _ := codec.Encode(vals)
		_, rest, _ := readUvarint(buf)
		if got, err := codec.Decode(append(huge, rest...)); err == nil && len(got) != len(vals) {
			t.Fatalf("%v: a count of 2^40 decoded %d values", kind, len(got))
		}
	}
	strs := [][]byte{[]byte("a"), []byte("bc"), []byte("a")}
	for _, kind := range AllStringKinds() {
		codec, _ := StringCodecFor(kind)
		buf, _ := codec.Encode(strs)
		_, rest, _ := readUvarint(buf)
		if got, err := codec.Decode(nil, append(huge, rest...)); err == nil && len(got) != len(strs) {
			t.Fatalf("%v: a count of 2^40 decoded %d values", kind, len(got))
		}
	}
}

func TestDictOrderPreserving(t *testing.T) {
	vals := []int64{30, 10, 20, 10, 30, 25}
	buf, err := DictInt{}.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	view, err := InspectIntDict(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(view.Entries); i++ {
		if view.Entries[i-1] >= view.Entries[i] {
			t.Fatal("dictionary not sorted: order preservation broken")
		}
	}
	// value order must equal key order
	k10, k20, k30 := view.LookupKey(10), view.LookupKey(20), view.LookupKey(30)
	if !(k10 < k20 && k20 < k30) {
		t.Fatalf("keys not order-preserving: %d %d %d", k10, k20, k30)
	}
	if view.LookupKey(11) != -1 {
		t.Fatal("missing value should look up to -1")
	}
	if view.LowerBoundKey(11) != k20 {
		t.Fatalf("LowerBoundKey(11) = %d, want %d", view.LowerBoundKey(11), k20)
	}
	keys, err := view.DecodeKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(vals) {
		t.Fatalf("got %d keys", len(keys))
	}
	for i, v := range vals {
		if view.Entries[keys[i]] != v {
			t.Fatalf("key %d maps to %d, want %d", keys[i], view.Entries[keys[i]], v)
		}
	}
}

func TestStringDictOrderPreserving(t *testing.T) {
	vals := [][]byte{[]byte("pear"), []byte("apple"), []byte("mango"), []byte("apple")}
	buf, err := DictString{}.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	view, err := InspectStringDict(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Entries) != 3 {
		t.Fatalf("distinct = %d", len(view.Entries))
	}
	ka := view.LookupKey([]byte("apple"))
	km := view.LookupKey([]byte("mango"))
	kp := view.LookupKey([]byte("pear"))
	if !(ka < km && km < kp) {
		t.Fatal("string dictionary keys not order-preserving")
	}
	if view.LookupKey([]byte("kiwi")) != -1 {
		t.Fatal("missing string should look up to -1")
	}
}

func TestRLERunsHelper(t *testing.T) {
	vals, lens := Runs([]int64{7, 7, 3, 9, 9, 9, 9})
	wantV, wantL := []int64{7, 3, 9}, []int{2, 1, 4}
	if !reflect.DeepEqual(vals, wantV) || !reflect.DeepEqual(lens, wantL) {
		t.Fatalf("Runs = %v/%v", vals, lens)
	}
	v, l := Runs(nil)
	if v != nil || l != nil {
		t.Fatal("Runs(nil) should be nil")
	}
}

func TestRLEDecodeRuns(t *testing.T) {
	input := []int64{5, 5, 5, 2, 2, 9}
	buf, err := RLEInt{}.Encode(input)
	if err != nil {
		t.Fatal(err)
	}
	vals, lens, err := RLEInt{}.DecodeRuns(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []int64{5, 2, 9}) || !reflect.DeepEqual(lens, []int{3, 2, 1}) {
		t.Fatalf("DecodeRuns = %v/%v", vals, lens)
	}
}

func TestCompressionRatioOrderings(t *testing.T) {
	plain := PlainInt{}
	// Sorted data: delta must beat plain comfortably.
	sorted := make([]int64, 4000)
	for i := range sorted {
		sorted[i] = int64(1_000_000 + i)
	}
	pb, _ := plain.Encode(sorted)
	db, _ := DeltaInt{}.Encode(sorted)
	if len(db)*4 > len(pb) {
		t.Fatalf("delta on sorted data should be ≥4x smaller: plain=%d delta=%d", len(pb), len(db))
	}
	// Low-cardinality data: dict must beat plain comfortably.
	lc := make([]int64, 4000)
	for i := range lc {
		lc[i] = int64(i % 4)
	}
	pb2, _ := plain.Encode(lc)
	dc, _ := DictInt{}.Encode(lc)
	if len(dc)*8 > len(pb2) {
		t.Fatalf("dict on low-card data should be ≥8x smaller: plain=%d dict=%d", len(pb2), len(dc))
	}
	// Long runs: RLE must beat bit-packing.
	runs := make([]int64, 4000)
	for i := range runs {
		runs[i] = int64(i / 500)
	}
	rb, _ := RLEInt{}.Encode(runs)
	bp, _ := BitPackedInt{}.Encode(runs)
	if len(rb) >= len(bp) {
		t.Fatalf("RLE on runs should beat bit-packing: rle=%d bp=%d", len(rb), len(bp))
	}
}

func TestPFORHandlesOutliers(t *testing.T) {
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = int64(i % 64)
	}
	vals[100] = 1 << 40
	vals[1500] = 1 << 50
	forBuf, _ := FORInt{}.Encode(vals)
	pforBuf, _ := PFORInt{}.Encode(vals)
	if len(pforBuf)*3 > len(forBuf) {
		t.Fatalf("PFOR should be ≥3x smaller than FOR with outliers: for=%d pfor=%d", len(forBuf), len(pforBuf))
	}
	got, err := PFORInt{}.Decode(pforBuf)
	if err != nil {
		t.Fatal(err)
	}
	if got[100] != 1<<40 || got[1500] != 1<<50 {
		t.Fatal("PFOR exceptions not restored")
	}
}

func TestBitVectorLookup(t *testing.T) {
	vals := []int64{1, 2, 1, 3, 2, 2}
	buf, err := BitVectorInt{}.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := BitVectorLookupInt(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	bm.ForEach(func(i int) { got = append(got, i) })
	if want := []int{1, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("positions = %v, want %v", got, want)
	}
	miss, err := BitVectorLookupInt(buf, 99)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Any() {
		t.Fatal("missing value should produce empty bitmap")
	}
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range append(AllIntKinds(), KindSnappy, KindGzip, KindDeltaLength) {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("ParseKind(%v.String()) = %v, %v", k, parsed, err)
		}
	}
	if _, err := ParseKind("NOPE"); err == nil {
		t.Fatal("ParseKind of unknown name should error")
	}
}

func TestCodecForRejectsWrongType(t *testing.T) {
	if _, err := IntCodecFor(KindDeltaLength); err == nil {
		t.Fatal("DeltaLength is not an int codec")
	}
	if _, err := StringCodecFor(KindDelta); err == nil {
		t.Fatal("Delta is not a string codec")
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Fatal("zigzag mapping wrong")
	}
}

func TestInspectBitPacked(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	buf, _ := BitPackedInt{}.Encode(vals)
	n, width, packed, err := InspectBitPacked(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("n = %d", n)
	}
	// zigzag(7) = 14 needs 4 bits
	if width != 4 {
		t.Fatalf("width = %d, want 4", width)
	}
	if len(packed) != 4 {
		t.Fatalf("packed = %d bytes, want 4", len(packed))
	}
}

func TestDeltaLengthZeroCopy(t *testing.T) {
	vals := [][]byte{[]byte("hello"), []byte("world")}
	buf, _ := DeltaLengthString{}.Encode(vals)
	got, err := DeltaLengthString{}.Decode(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	// Decoded slices must alias buf (zero-copy), not fresh allocations.
	if &got[0][0] != &buf[1] {
		t.Fatal("decode should alias the encoded buffer")
	}
}
