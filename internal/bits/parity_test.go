package bits

import (
	"bytes"
	"math/rand"
	"testing"
)

// The tests in this file are differential: every operation runs against
// both the word-at-a-time implementation and the retained per-bit
// reference (reference.go), and the streams, lengths, values and error
// states must agree exactly. This is what "byte-identical output" means
// mechanically for the serialization layer.

// checkWriterParity asserts the two writers hold identical streams.
func checkWriterParity(t *testing.T, w *Writer, ref *refWriter, ctx string) {
	t.Helper()
	if w.Len() != ref.len() {
		t.Fatalf("%s: Len=%d ref=%d", ctx, w.Len(), ref.len())
	}
	if !bytes.Equal(w.Bytes(), ref.bytes()) {
		t.Fatalf("%s: bytes %x != ref %x", ctx, w.Bytes(), ref.bytes())
	}
}

// driveWriters applies one pseudo-random op to both writers.
func driveWriters(rng *rand.Rand, w *Writer, ref *refWriter) string {
	switch rng.Intn(5) {
	case 0:
		b := uint(rng.Intn(2))
		w.WriteBit(b)
		ref.writeBit(b)
		return "WriteBit"
	case 1:
		n := rng.Intn(65)
		v := rng.Uint64()
		w.WriteBits(v, n)
		ref.writeBits(v, n)
		return "WriteBits"
	case 2:
		p := make([]byte, rng.Intn(20))
		rng.Read(p)
		w.WriteBytes(p)
		ref.writeBytes(p)
		return "WriteBytes"
	case 3:
		p := make([]byte, rng.Intn(12))
		rng.Read(p)
		nbits := rng.Intn(8*len(p) + 1)
		w.WriteStream(p, nbits)
		ref.writeStream(p, nbits)
		return "WriteStream"
	default:
		// Interleaved Bytes(): materializes the staged tail; writing
		// must continue the same stream afterwards (the guarded-marshal
		// pattern in core).
		w.Bytes()
		ref.bytes()
		return "Bytes"
	}
}

func TestWriterWordParity(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w Writer
		var ref refWriter
		for op := 0; op < 60; op++ {
			name := driveWriters(rng, &w, &ref)
			checkWriterParity(t, &w, &ref, name)
		}
		w.Reset()
		ref.reset()
		checkWriterParity(t, &w, &ref, "Reset")
		// One more round after reuse.
		for op := 0; op < 20; op++ {
			name := driveWriters(rng, &w, &ref)
			checkWriterParity(t, &w, &ref, name)
		}
	}
}

// driveReaders applies one pseudo-random read to both readers and
// asserts identical results (value, error presence and text, position).
func driveReaders(t *testing.T, rng *rand.Rand, r *Reader, ref *refReader) {
	t.Helper()
	switch rng.Intn(3) {
	case 0:
		got, gerr := r.ReadBit()
		want, werr := ref.readBit()
		if got != want || !errEqual(gerr, werr) {
			t.Fatalf("ReadBit: (%d,%v) != ref (%d,%v)", got, gerr, want, werr)
		}
	case 1:
		n := rng.Intn(67) - 1 // include invalid widths -1 and 65
		got, gerr := r.ReadBits(n)
		want, werr := ref.readBits(n)
		if got != want || !errEqual(gerr, werr) {
			t.Fatalf("ReadBits(%d): (%#x,%v) != ref (%#x,%v)", n, got, gerr, want, werr)
		}
	default:
		// The reference returns nil on error and AppendBytes returns dst
		// unchanged, so an empty dst makes the two comparable.
		n := rng.Intn(12)
		got, gerr := r.AppendBytes(make([]byte, 0, n), n)
		want, werr := ref.readBytes(n)
		if !bytes.Equal(got, want) || !errEqual(gerr, werr) {
			t.Fatalf("AppendBytes(%d): (%x,%v) != ref (%x,%v)", n, got, gerr, want, werr)
		}
	}
	if r.Remaining() != ref.remaining() {
		t.Fatalf("Remaining %d != ref %d", r.Remaining(), ref.remaining())
	}
}

func errEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

func TestReaderWordParity(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		// Mix well-formed, truncated and negative declared lengths.
		nbits := rng.Intn(8*len(buf)+20) - 5
		r := NewReader(buf, nbits)
		var ref refReader
		ref.reset(buf, nbits)
		if !errEqual(r.Err(), ref.err()) {
			t.Fatalf("Err: %v != ref %v", r.Err(), ref.err())
		}
		for op := 0; op < 40; op++ {
			driveReaders(t, rng, r, &ref)
		}
	}
}

// TestAppendBytesReuse pins the allocation contract: appending into a
// reused buffer performs no allocation at any bit alignment.
func TestAppendBytesReuse(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3) // misalign
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	w.WriteBytes(payload)
	r := NewReader(w.Bytes(), w.Len())
	dst := make([]byte, 0, len(payload))
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(w.Bytes(), w.Len())
		if _, err := r.ReadBits(3); err != nil {
			t.Fatal(err)
		}
		var err error
		dst, err = r.AppendBytes(dst[:0], len(payload))
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBytes into reused buffer: %v allocs/op", allocs)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatalf("AppendBytes got %x, want %x", dst, payload)
	}
}

// FuzzBitsWordParity cross-checks the word-at-a-time Writer/Reader
// against the per-bit reference on fuzz-driven op sequences: random
// widths, interleaved bit/byte/stream ops, then a read-back pass over a
// randomly truncated view of the stream.
func FuzzBitsWordParity(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0xFF, 0x03, 0x00})
	f.Add([]byte{0x02, 0x08, 0xAA, 0xBB, 0xCC, 0x04, 0x00, 0x10})
	f.Add(bytes.Repeat([]byte{0x1F}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Writer
		var ref refWriter
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		// Op stream: each op consumes a selector byte plus operands.
		for pos < len(data) && w.Len() < 1<<14 {
			switch next() % 5 {
			case 0:
				b := uint(next() & 1)
				w.WriteBit(b)
				ref.writeBit(b)
			case 1:
				n := int(next() % 65)
				var v uint64
				for i := 0; i < 8; i++ {
					v = v<<8 | uint64(next())
				}
				w.WriteBits(v, n)
				ref.writeBits(v, n)
			case 2:
				n := int(next() % 16)
				p := make([]byte, n)
				for i := range p {
					p[i] = next()
				}
				w.WriteBytes(p)
				ref.writeBytes(p)
			case 3:
				n := int(next() % 8)
				p := make([]byte, n)
				for i := range p {
					p[i] = next()
				}
				nbits := 0
				if len(p) > 0 {
					nbits = int(next()) % (8*len(p) + 1)
				}
				w.WriteStream(p, nbits)
				ref.writeStream(p, nbits)
			default:
				w.Bytes()
			}
		}
		if w.Len() != ref.len() || !bytes.Equal(w.Bytes(), ref.bytes()) {
			t.Fatalf("writer parity: %d bits %x vs ref %d bits %x",
				w.Len(), w.Bytes(), ref.len(), ref.bytes())
		}
		// Read-back over a possibly-truncated view: drop up to 3 bytes
		// of backing while keeping the declared length.
		buf := append([]byte(nil), w.Bytes()...)
		cut := int(next() % 4)
		if cut > len(buf) {
			cut = len(buf)
		}
		view := buf[:len(buf)-cut]
		r := NewReader(view, w.Len())
		var rr refReader
		rr.reset(view, w.Len())
		if !errEqual(r.Err(), rr.err()) {
			t.Fatalf("Err parity: %v vs %v", r.Err(), rr.err())
		}
		for i := 0; i < 64 && pos < len(data); i++ {
			switch next() % 3 {
			case 0:
				g, ge := r.ReadBit()
				x, xe := rr.readBit()
				if g != x || !errEqual(ge, xe) {
					t.Fatalf("ReadBit parity: (%d,%v) vs (%d,%v)", g, ge, x, xe)
				}
			case 1:
				n := int(next() % 65)
				g, ge := r.ReadBits(n)
				x, xe := rr.readBits(n)
				if g != x || !errEqual(ge, xe) {
					t.Fatalf("ReadBits(%d) parity: (%#x,%v) vs (%#x,%v)", n, g, ge, x, xe)
				}
			default:
				n := int(next() % 10)
				g, ge := r.AppendBytes(nil, n)
				x, xe := rr.readBytes(n)
				if !bytes.Equal(g, x) || !errEqual(ge, xe) {
					t.Fatalf("AppendBytes(%d) parity: (%x,%v) vs (%x,%v)", n, g, ge, x, xe)
				}
			}
			if r.Remaining() != rr.remaining() {
				t.Fatalf("Remaining parity: %d vs %d", r.Remaining(), rr.remaining())
			}
		}
	})
}

// TestCopyRemainingParity checks the 64-bit-chunk relay against a
// ReadBit/WriteBit relay at every start alignment, including truncated
// declared lengths.
func TestCopyRemainingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		nbits := 8 * len(buf)
		if rng.Intn(3) == 0 {
			nbits = rng.Intn(8*len(buf) + 16) // sometimes truncated or short
		}
		skip := 0
		if n := NewReader(buf, nbits).Remaining(); n > 0 {
			skip = rng.Intn(n + 1)
		}

		ra := NewReader(buf, nbits)
		var wa Writer
		wa.WriteBits(uint64(trial), rng.Intn(20)) // random start alignment
		prefix := wa.Len()
		ra.ReadBits(skip % 65)
		for s := skip % 65; s < skip; s++ {
			ra.ReadBit()
		}
		wa.CopyRemaining(ra)

		rb := NewReader(buf, nbits)
		var wb refWriter
		wb.writeBits(uint64(trial), prefix)
		for s := 0; s < skip; s++ {
			rb.ReadBit()
		}
		for rb.Remaining() > 0 {
			b, _ := rb.ReadBit()
			wb.writeBit(b)
		}

		if wa.Len() != wb.len() {
			t.Fatalf("trial %d: len %d, want %d", trial, wa.Len(), wb.len())
		}
		if got, want := wa.Bytes(), wb.bytes(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: bytes %x, want %x", trial, got, want)
		}
		if ra.Remaining() != 0 {
			t.Fatalf("trial %d: source not drained, %d bits left", trial, ra.Remaining())
		}
	}
}
