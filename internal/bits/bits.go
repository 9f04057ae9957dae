// Package bits provides bit-granular serialization used by the
// compression engines and the CABLE payload format. Compressed link
// payloads are sized in bits, not bytes: the paper's compression ratios
// and link-flit quantization (§III-E) both depend on exact bit counts.
//
// The implementation is word-at-a-time: the Writer stages bits in a
// 64-bit accumulator and flushes eight bytes at once, the Reader
// extracts up to 64 bits per call from an 8-byte window over the
// buffer. The bit order on the wire — most-significant-bit first within
// each byte — is identical to the historical per-bit implementation
// (retained in reference.go and cross-checked by differential tests),
// so encoded images are byte-for-byte unchanged.
package bits

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Writer accumulates a bit stream most-significant-bit first within each
// byte. The zero value is ready to use.
//
// Internally, bits are staged MSB-aligned in a 64-bit accumulator and
// flushed to the byte buffer eight bytes at a time; Bytes materializes
// any staged tail (zero-padded to a byte boundary) without disturbing
// subsequent writes.
type Writer struct {
	buf   []byte
	nbits int
	acc   uint64 // staged bits, MSB-aligned (bit 63 is the next wire bit)
	accn  int    // number of staged bits, 0..63
	tail  int    // trailing bytes of buf that duplicate acc (set by Bytes)
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbits }

// unseal drops the tail bytes Bytes materialized so writes can resume
// from the accumulator (which still holds those bits exactly).
func (w *Writer) unseal() {
	if w.tail > 0 {
		w.buf = w.buf[:len(w.buf)-w.tail]
		w.tail = 0
	}
}

// Bytes returns the underlying buffer. The final byte is zero-padded.
// Writing after Bytes is allowed and continues the same stream; the
// returned slice remains valid until the next Reset.
func (w *Writer) Bytes() []byte {
	if w.accn > 0 && w.tail == 0 {
		nb := (w.accn + 7) / 8
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], w.acc)
		w.buf = append(w.buf, tmp[:nb]...)
		w.tail = nb
	}
	return w.buf
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.unseal()
	w.acc |= uint64(b&1) << uint(63-w.accn)
	w.accn++
	w.nbits++
	if w.accn == 64 {
		w.flush()
	}
}

// flush moves the full accumulator into the buffer.
func (w *Writer) flush() {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], w.acc)
	w.buf = append(w.buf, tmp[:]...)
	w.acc, w.accn = 0, 0
}

// writeBitsWidth exists only for its bounds check: indexing it with the
// width rejects n outside [0, 64] with a panic, at the cost of one
// compare instead of an un-inlinable formatted panic.
var writeBitsWidth [65]struct{}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
//
// This is the hottest call in the compression engines (a few dozen
// calls per encoded line), so the body is kept within the inlining
// budget: the width check is an array bounds check, the unseal test is
// open-coded, and the once-per-64-bits accumulator spill is outlined.
func (w *Writer) WriteBits(v uint64, n int) {
	_ = writeBitsWidth[n]
	if w.tail > 0 {
		w.buf = w.buf[:len(w.buf)-w.tail]
		w.tail = 0
	}
	v &= 1<<uint(n) - 1 // all-ones when n == 64: 1<<64 wraps to 0
	w.nbits += n
	free := 64 - w.accn
	if n < free {
		w.acc |= v << uint(free-n)
		w.accn += n
		return
	}
	w.spillBits(v, n, free)
}

// spillBits completes a WriteBits that fills the accumulator: flush the
// full 64 bits and restage the remainder. Kept out of line so WriteBits
// itself stays within the inlining budget — the spill runs once per 64
// bits written, the fast path on every call.
//
//go:noinline
func (w *Writer) spillBits(v uint64, n, free int) {
	w.acc |= v >> uint(n-free)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], w.acc)
	w.buf = append(w.buf, tmp[:]...)
	rem := n - free
	w.accn = rem
	if rem == 0 {
		w.acc = 0
	} else {
		w.acc = v << uint(64-rem)
	}
}

// WriteBytes appends p as 8·len(p) bits. When the stream is at a byte
// boundary this is a single copy; otherwise bytes are packed through the
// accumulator eight at a time.
func (w *Writer) WriteBytes(p []byte) {
	w.unseal()
	if w.accn%8 == 0 {
		if nb := w.accn / 8; nb > 0 {
			var tmp [8]byte
			binary.BigEndian.PutUint64(tmp[:], w.acc)
			w.buf = append(w.buf, tmp[:nb]...)
			w.acc, w.accn = 0, 0
		}
		w.buf = append(w.buf, p...)
		w.nbits += 8 * len(p)
		return
	}
	for len(p) >= 8 {
		w.WriteBits(binary.BigEndian.Uint64(p), 64)
		p = p[8:]
	}
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// WriteStream appends the first nbits of p (MSB-first within each byte,
// the layout Writer itself produces), the word-level equivalent of
// replaying a stream bit by bit. nbits must fit in p.
func (w *Writer) WriteStream(p []byte, nbits int) {
	if nbits < 0 || nbits > 8*len(p) {
		panic(fmt.Sprintf("bits: WriteStream %d bits from %d-byte buffer", nbits, len(p)))
	}
	full := nbits / 8
	w.WriteBytes(p[:full])
	if rem := nbits % 8; rem != 0 {
		w.WriteBits(uint64(p[full]>>uint(8-rem)), rem)
	}
}

// CopyRemaining appends every unread bit of r to w, 64 bits at a time —
// the word-level form of the ReadBit/WriteBit relay loop. The source
// may start at any bit alignment.
func (w *Writer) CopyRemaining(r *Reader) {
	for r.Remaining() >= 64 {
		v, _ := r.ReadBits(64)
		w.WriteBits(v, 64)
	}
	if n := r.Remaining(); n > 0 {
		v, _ := r.ReadBits(n)
		w.WriteBits(v, n)
	}
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbits, w.acc, w.accn, w.tail = 0, 0, 0, 0
}

// Reader consumes a bit stream produced by Writer.
type Reader struct {
	buf   []byte
	nbits int
	pos   int
	// short records that the stream was declared longer than the
	// backing buffer (a truncated wire image). Reads are bounded to the
	// physical buffer either way — a Reader can never index past buf —
	// and reads past the physical end report the truncation.
	short bool
}

// NewReader returns a Reader over nbits bits of buf. A declared length
// beyond the physical buffer (or a negative one) is clamped so reads
// can never index out of range; the mismatch is reported by Err and by
// the error of the read that hits the physical end.
func NewReader(buf []byte, nbits int) *Reader {
	r := &Reader{}
	r.Reset(buf, nbits)
	return r
}

// Reset re-points the reader at a new stream, reusing the struct (the
// allocation-free sibling of NewReader). It applies the same bounds
// validation as NewReader.
func (r *Reader) Reset(buf []byte, nbits int) {
	r.buf, r.nbits, r.pos, r.short = buf, nbits, 0, false
	if r.nbits < 0 {
		r.nbits, r.short = 0, true
	}
	if max := 8 * len(buf); r.nbits > max {
		r.nbits, r.short = max, true
	}
}

// Err reports whether the stream was constructed with a declared length
// outside the backing buffer (nil otherwise).
func (r *Reader) Err() error {
	if r.short {
		return fmt.Errorf("bits: stream declared longer than its %d-byte buffer", len(r.buf))
	}
	return nil
}

// Remaining returns the number of unread, physically-backed bits.
func (r *Reader) Remaining() int { return r.nbits - r.pos }

// eos reports the end-of-stream error and, mirroring the per-bit
// implementation (which consumed every available bit before failing),
// leaves the reader fully drained.
func (r *Reader) eos() error {
	r.pos = r.nbits
	if r.short {
		return fmt.Errorf("bits: read past end of truncated %d-bit stream", r.nbits)
	}
	return fmt.Errorf("bits: read past end of %d-bit stream", r.nbits)
}

// ReadBit consumes one bit. It reports an error past end of stream.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.nbits {
		return 0, r.eos()
	}
	b := uint(r.buf[r.pos/8]>>(7-uint(r.pos%8))) & 1
	r.pos++
	return b, nil
}

// peek64 extracts n bits starting at bit position pos, right-aligned.
// The caller guarantees 1 ≤ n ≤ 64 and pos+n ≤ nbits (≤ 8·len(buf)), so
// every byte the window touches is physically backed.
func (r *Reader) peek64(pos, n int) uint64 {
	off := pos >> 3
	shift := uint(pos & 7)
	var word uint64
	if off+8 <= len(r.buf) {
		word = binary.BigEndian.Uint64(r.buf[off:])
	} else {
		var tmp [8]byte
		copy(tmp[:], r.buf[off:])
		word = binary.BigEndian.Uint64(tmp[:])
	}
	if n <= 64-int(shift) {
		return (word << shift) >> uint(64-n)
	}
	// The read spans nine bytes: top bits from the shifted window, the
	// rest from the next byte (guaranteed in-bounds, see above).
	need := n - (64 - int(shift))
	return (word<<shift)>>uint(64-n) | uint64(r.buf[off+8])>>uint(8-need)
}

// ReadBits consumes n bits and returns them right-aligned.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bits: ReadBits width %d out of range", n)
	}
	if r.nbits-r.pos < n {
		return 0, r.eos()
	}
	if n == 0 {
		return 0, nil
	}
	v := r.peek64(r.pos, n)
	r.pos += n
	return v, nil
}

// AppendBytes consumes 8·n bits and appends them to dst, growing it at
// most once (a reused dst allocates nothing). At a byte boundary this is
// a single copy. On an error dst comes back unchanged.
func (r *Reader) AppendBytes(dst []byte, n int) ([]byte, error) {
	if n < 0 {
		return dst, fmt.Errorf("bits: AppendBytes count %d out of range", n)
	}
	if r.nbits-r.pos < 8*n {
		return dst, r.eos()
	}
	if r.pos%8 == 0 {
		off := r.pos / 8
		dst = append(dst, r.buf[off:off+n]...)
		r.pos += 8 * n
		return dst, nil
	}
	dst = slices.Grow(dst, n)
	i := 0
	for ; i+8 <= n; i += 8 {
		dst = binary.BigEndian.AppendUint64(dst, r.peek64(r.pos, 64))
		r.pos += 64
	}
	for ; i < n; i++ {
		dst = append(dst, byte(r.peek64(r.pos, 8)))
		r.pos += 8
	}
	return dst, nil
}
