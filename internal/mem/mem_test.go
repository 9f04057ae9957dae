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

// TestRecycledStoreShowsOnlyFill: a store built after another of its
// line size was released — with a store of another line size built and
// released in between — takes the released chunks, and still returns
// its own fill function's bytes for every line, never one the previous
// owner read or wrote, and counts only its own lines.
func TestRecycledStoreShowsOnlyFill(t *testing.T) {
	line := func(size int, v byte) []byte { return bytes.Repeat([]byte{v}, size) }
	old := NewStore(8, func(a uint64) []byte { return line(8, byte(a)) })
	for a := uint64(0); a < 600; a++ { // three chunks
		old.Read(a)
	}
	old.Write(7, line(8, 0xEE))
	old.Write(900, line(8, 0xEE))
	released := map[*byte]bool{}
	for _, c := range old.chunks {
		released[&c[0]] = true
	}
	old.Release()

	// Wider lines than the released store's: its chunks are too short.
	other := NewStore(16, func(uint64) []byte { return line(16, 0x55) })
	for a := uint64(0); a < 300; a++ {
		other.Write(a, line(16, 0x66))
	}
	other.Release()

	s := NewStore(8, func(a uint64) []byte { return line(8, 0x80|byte(a)) })
	if got := s.Read(0); !released[&s.chunks[0][0]] {
		// sync.Pool may drop a Put (always possible, and a quarter of
		// them under the race detector); the reads still have to hold.
		t.Logf("the pool did not hand a released chunk back (line 0 = %x)", got)
	}
	if s.Lines() != 1 {
		t.Fatalf("recycled store holds %d lines after one read", s.Lines())
	}
	for _, a := range []uint64{7, 900, 1, 599, 300} {
		if got, want := s.Read(a), line(8, 0x80|byte(a)); !bytes.Equal(got, want) {
			t.Fatalf("line %d: read %x, want the fill's %x", a, got, want)
		}
	}
	if s.Lines() != 6 || s.Reads != 6 || s.Writes != 0 {
		t.Fatalf("lines=%d reads=%d writes=%d", s.Lines(), s.Reads, s.Writes)
	}
}

// TestStoreReleasedIsUnusable: a released store fails fast instead of
// writing into a chunk the next store owns.
func TestStoreReleasedIsUnusable(t *testing.T) {
	s := NewStore(4, func(uint64) []byte { return make([]byte, 4) })
	s.Read(0)
	s.Release()
	s.Release() // a second release is harmless
	for name, use := range map[string]func(){
		"read":  func() { s.Read(1) },
		"write": func() { s.Write(1, make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a released store served a %s", name)
				}
			}()
			use()
		}()
	}
}
