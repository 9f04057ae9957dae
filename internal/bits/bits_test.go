package bits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	var w Writer
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("expected error past end of stream")
	}
}

func TestWriteBitsWidths(t *testing.T) {
	for width := 0; width <= 64; width++ {
		var w Writer
		v := uint64(0xDEADBEEFCAFEBABE)
		if width < 64 {
			v &= (1 << uint(width)) - 1
		}
		w.WriteBits(v, width)
		if w.Len() != width {
			t.Fatalf("width %d: Len = %d", width, w.Len())
		}
		r := NewReader(w.Bytes(), w.Len())
		got, err := r.ReadBits(width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if got != v {
			t.Fatalf("width %d: got %x, want %x", width, got, v)
		}
	}
}

func TestWriteBytesRoundTrip(t *testing.T) {
	var w Writer
	w.WriteBit(1) // misalign on purpose
	payload := []byte{0x00, 0xFF, 0x5A, 0xA5, 0x12}
	w.WriteBytes(payload)
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	got, err := r.AppendBytes(nil, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %x, want %x", got, payload)
	}
}

func TestReset(t *testing.T) {
	var w Writer
	w.WriteBits(0x3FF, 10)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("after Reset: Len=%d bytes=%d", w.Len(), len(w.Bytes()))
	}
	w.WriteBits(0x5, 3)
	r := NewReader(w.Bytes(), w.Len())
	v, err := r.ReadBits(3)
	if err != nil || v != 5 {
		t.Fatalf("got %d, %v", v, err)
	}
}

func TestWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBits(65) should panic")
		}
	}()
	var w Writer
	w.WriteBits(0, 65)
}

func TestReadBitsWidthError(t *testing.T) {
	r := NewReader([]byte{0xFF}, 8)
	if _, err := r.ReadBits(65); err == nil {
		t.Fatal("ReadBits(65) should error")
	}
	if _, err := r.ReadBits(-1); err == nil {
		t.Fatal("ReadBits(-1) should error")
	}
}

func TestRemaining(t *testing.T) {
	var w Writer
	w.WriteBits(0xABCD, 16)
	r := NewReader(w.Bytes(), w.Len())
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 {
		t.Fatalf("Remaining after 5 = %d", r.Remaining())
	}
}

// Property: any sequence of (value,width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		widths := make([]int, count)
		values := make([]uint64, count)
		var w Writer
		for i := 0; i < count; i++ {
			widths[i] = rng.Intn(65)
			values[i] = rng.Uint64()
			if widths[i] < 64 {
				values[i] &= (1 << uint(widths[i])) - 1
			}
			w.WriteBits(values[i], widths[i])
		}
		r := NewReader(w.Bytes(), w.Len())
		for i := 0; i < count; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != values[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a Reader whose declared length exceeds its physical
// buffer (a truncated wire image) must clamp and error, never index
// past the buffer. The pre-fix code panicked with an out-of-range
// slice access on the first read past the physical end.
func TestReaderTruncatedStream(t *testing.T) {
	var w Writer
	w.WriteBytes([]byte{0xAB, 0xCD})

	// Declared 64 bits, backed by 2 bytes.
	r := NewReader(w.Bytes(), 64)
	if r.Err() == nil {
		t.Fatal("truncated stream reported no construction error")
	}
	if got := r.Remaining(); got != 16 {
		t.Fatalf("Remaining = %d, want clamp to 16 physical bits", got)
	}
	if v, err := r.ReadBits(16); err != nil || v != 0xABCD {
		t.Fatalf("reads within the physical buffer must succeed: v=%#x err=%v", v, err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read past the physical end of a truncated stream succeeded")
	}

	// Negative declared length clamps to empty.
	r = NewReader(w.Bytes(), -5)
	if r.Err() == nil || r.Remaining() != 0 {
		t.Fatalf("negative length: err=%v remaining=%d", r.Err(), r.Remaining())
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read from negative-length stream succeeded")
	}

	// A well-formed stream keeps Err nil and errors only at its end.
	r = NewReader(w.Bytes(), 16)
	if r.Err() != nil {
		t.Fatalf("well-formed stream reported %v", r.Err())
	}
	if _, err := r.ReadBits(16); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read past declared end succeeded")
	}

	// Reset must re-validate: reusing a healthy reader on a truncated
	// stream re-arms the clamp, and vice versa.
	r.Reset(w.Bytes(), 1000)
	if r.Err() == nil || r.Remaining() != 16 {
		t.Fatalf("Reset validation: err=%v remaining=%d", r.Err(), r.Remaining())
	}
	r.Reset(w.Bytes(), 8)
	if r.Err() != nil {
		t.Fatalf("Reset back to valid: %v", r.Err())
	}
}
