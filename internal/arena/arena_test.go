package arena

import "testing"

func TestScratchBufferFamilies(t *testing.T) {
	var s Scratch // zero value is ready

	raw := s.Raw(100)
	if len(raw) != 100 {
		t.Fatalf("Raw(100) len = %d", len(raw))
	}
	raw[0] = 0xAB
	raw2 := s.Raw(50)
	if len(raw2) != 50 || &raw2[0] != &raw[0] {
		t.Fatalf("smaller Raw should reuse storage")
	}

	body := s.Body(64)
	if len(body) != 0 || cap(body) < 64 {
		t.Fatalf("Body(64): len=%d cap=%d", len(body), cap(body))
	}
	// A body that grew past the scratch capacity is kept; a smaller one is not.
	grown := make([]byte, 0, 4096)
	s.KeepBody(grown)
	if cap(s.Body(1)) < 4096 {
		t.Fatalf("KeepBody did not retain grown capacity")
	}
	s.KeepBody(make([]byte, 0, 8))
	if cap(s.Body(1)) < 4096 {
		t.Fatalf("KeepBody replaced larger buffer with smaller")
	}

	ints := s.Ints(32)
	if len(ints) != 0 || cap(ints) < 32 {
		t.Fatalf("Ints(32): len=%d cap=%d", len(ints), cap(ints))
	}
	s.KeepInts(make([]int64, 0, 1024))
	if cap(s.Ints(1)) < 1024 {
		t.Fatalf("KeepInts did not retain grown capacity")
	}

	floats := s.Floats(32)
	if len(floats) != 0 || cap(floats) < 32 {
		t.Fatalf("Floats(32): len=%d cap=%d", len(floats), cap(floats))
	}
	s.KeepFloats(make([]float64, 0, 1024))
	if cap(s.Floats(1)) < 1024 {
		t.Fatalf("KeepFloats did not retain grown capacity")
	}
}

func TestScratchBitmapZeroed(t *testing.T) {
	var s Scratch
	bm := s.Bitmap(130)
	if bm.Len() != 130 {
		t.Fatalf("Bitmap len = %d", bm.Len())
	}
	bm.Set(0)
	bm.Set(129)
	// Reacquiring must hand back an all-zero bitmap over the same words.
	bm2 := s.Bitmap(130)
	for i := 0; i < 130; i++ {
		if bm2.Get(i) {
			t.Fatalf("bit %d not cleared on reuse", i)
		}
	}
	// Shrinking then growing within capacity still zeroes every word.
	s.Bitmap(64).Set(63)
	bm3 := s.Bitmap(128)
	if bm3.Get(63) || bm3.Get(127) {
		t.Fatalf("stale bits after resize")
	}
}

func TestPoolPutNil(t *testing.T) {
	Put(nil) // must not panic
	s := Get()
	if s == nil {
		t.Fatal("Get returned nil")
	}
	s.Raw(10)
	Put(s)
}
