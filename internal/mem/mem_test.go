package mem

import (
	"bytes"
	"testing"
)

func TestStoreLazyFill(t *testing.T) {
	fills := 0
	s := NewStore(4, func(a uint64) []byte {
		fills++
		return []byte{byte(a), 0, 0, 0}
	})
	d := s.Read(7)
	if d[0] != 7 || fills != 1 {
		t.Fatalf("read = %v, fills = %d", d, fills)
	}
	s.Read(7)
	if fills != 1 {
		t.Fatal("second read must not refill")
	}
	if s.Lines() != 1 || s.Reads != 2 {
		t.Fatalf("lines=%d reads=%d", s.Lines(), s.Reads)
	}
}

// TestStoreCopiesFill: workload generators return the same buffer from
// every fill, so the store's copy is what keeps lines apart.
func TestStoreCopiesFill(t *testing.T) {
	buf := make([]byte, 4)
	s := NewStore(4, func(a uint64) []byte {
		for i := range buf {
			buf[i] = byte(a)
		}
		return buf
	})
	a, b := s.Read(1), s.Read(2)
	s.Read(3)
	if !bytes.Equal(a, []byte{1, 1, 1, 1}) || !bytes.Equal(b, []byte{2, 2, 2, 2}) {
		t.Fatalf("lines alias the fill buffer: line 1 = %v, line 2 = %v", a, b)
	}
	if got := s.Read(1); &got[0] != &a[0] {
		t.Fatal("re-read returned a different copy")
	}
}

func TestStoreWrite(t *testing.T) {
	s := NewStore(4, func(uint64) []byte { return make([]byte, 4) })
	w := []byte{1, 2, 3, 4}
	s.Write(9, w)
	w[0] = 99
	if got := s.Read(9); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("write not copied: %v", got)
	}
	if s.Writes != 1 {
		t.Fatalf("writes = %d", s.Writes)
	}
}

func TestStorePanicsOnSizeMismatch(t *testing.T) {
	s := NewStore(4, func(uint64) []byte { return make([]byte, 3) })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad fill size should panic")
			}
		}()
		s.Read(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad write size should panic")
			}
		}()
		s.Write(1, []byte{1})
	}()
}
