// Package compress implements the compression engines CABLE delegates
// to (§II-B: "CABLE is a compression framework and not a compression
// algorithm") and the baseline link compressors the paper evaluates
// against: CPACK, CPACK128, BDI, LBE256 and a gzip-class streaming LZSS.
//
// Every engine is bit-exact: Decompress(Compress(line)) == line, and
// encoded sizes are counted in bits because the paper's ratios and link
// flit quantization depend on exact payload bits.
package compress

import (
	"encoding/binary"
	"fmt"

	"cable/internal/bits"
	"cable/internal/obs"
)

// Encoded is a compressed block: a bit stream plus its exact length.
type Encoded struct {
	Data  []byte
	NBits int
}

// Reader returns a bit reader over the encoded stream.
func (e Encoded) Reader() *bits.Reader { return bits.NewReader(e.Data, e.NBits) }

// Engine compresses a single cache line, optionally seeded with
// reference lines that form a temporary dictionary (Fig 10). Engines
// must be deterministic and bit-exact round-trip.
type Engine interface {
	// Name identifies the engine in reports ("cpack", "lbe", ...).
	Name() string
	// Compress encodes line. refs, if non-empty, seed the engine's
	// dictionary; both sides of the link must pass identical refs.
	Compress(line []byte, refs [][]byte) Encoded
	// Decompress inverts Compress given the same refs and the
	// original line size.
	Decompress(enc Encoded, refs [][]byte, lineSize int) ([]byte, error)
	// DecompressFrom is the engine's one decoder body: it decodes a line
	// from r's current position, reusing s's buffers, and leaves r just
	// after the last bit it used. Every code table is self-delimiting
	// (the decompressed size is fixed), so a caller may pack streams back
	// to back with no length between them. The result aliases s.
	DecompressFrom(s *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error)
}

// Scratch holds the reusable buffers of the allocation-free compression
// path. One Scratch belongs to one caller (a link end, a meter); it
// must not be shared across goroutines. The Encoded returned by
// CompressWith aliases the Scratch and is valid until the next call
// with the same Scratch.
type Scratch struct {
	w    bits.Writer
	dict []uint32
	src  []uint32
	lbe  lbeIndex // LBE's dictionary position index
	lz   *LZSS    // SeededLZSS's per-line window coder, built on first use

	mx       compressCounters // zero = process-default block, resolved on first flush
	shard    uint32           // metrics shard, drawn lazily (zero value is valid)
	hasShard bool
}

// UseRegistry points this scratch's compression counters at reg; nil
// restores the process-default registry. Memoized experiment cells run
// their link ends against private registries so their metrics can be
// merged into the default one on every request.
func (s *Scratch) UseRegistry(reg *obs.Registry) {
	s.mx = newCompressCounters(reg)
}

// ScratchEngine is implemented by engines offering an allocation-free
// compression path into caller-owned scratch space.
type ScratchEngine interface {
	Engine
	// CompressScratch behaves like Compress but reuses s's buffers;
	// the result aliases s.
	CompressScratch(s *Scratch, line []byte, refs [][]byte) Encoded
}

// CompressWith compresses via the engine's scratch path when it offers
// one, falling back to the allocating Compress. Passing a nil Scratch
// always falls back. It is a BatchCompressor of one line: engine
// dispatch and counter publication live in batch.go only.
func CompressWith(e Engine, s *Scratch, line []byte, refs [][]byte) Encoded {
	b := NewBatchCompressor(e, s)
	enc := b.Compress(line, refs)
	b.Flush()
	return enc
}

// DecScratch holds the reusable buffers of the decompression path. One
// DecScratch belongs to one caller (a link end); it must not be shared
// across goroutines. The slice returned by DecompressFrom and
// DecompressWith aliases the DecScratch and is valid until the next
// call with the same DecScratch.
type DecScratch struct {
	dict []uint32
	out  []uint32
	res  []byte
	r    bits.Reader
}

// result stores the decoded words back in s (retaining the buffer's
// grown capacity) and returns them serialized into s.res.
func (s *DecScratch) result(out []uint32) []byte {
	s.out = out
	s.res = AppendPutWords(s.res[:0], out)
	return s.res
}

// DecompressWith decodes enc through e.DecompressFrom with s's reader
// bounded to enc, so the result aliases s. A nil DecScratch gets a
// throwaway one, which is every engine's Decompress: the result is then
// uniquely owned because the scratch dies with the call.
func DecompressWith(e Engine, s *DecScratch, enc Encoded, refs [][]byte, lineSize int) ([]byte, error) {
	if s == nil {
		s = new(DecScratch)
	}
	s.r.Reset(enc.Data, enc.NBits)
	return e.DecompressFrom(s, &s.r, refs, lineSize)
}

// Words reinterprets a line as little-endian 32-bit words.
func Words(line []byte) []uint32 {
	return AppendWords(make([]uint32, 0, len(line)/4), line)
}

// Word32 reads the little-endian 32-bit word at byte offset off.
func Word32(p []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(p[off : off+4])
}

// AppendWords appends line's little-endian 32-bit words to dst.
func AppendWords(dst []uint32, line []byte) []uint32 {
	if len(line)%4 != 0 {
		panic(fmt.Sprintf("compress: line size %d not word aligned", len(line)))
	}
	for i := 0; i+4 <= len(line); i += 4 {
		dst = append(dst, binary.LittleEndian.Uint32(line[i:]))
	}
	return dst
}

// AppendPutWords appends words' little-endian bytes to dst.
func AppendPutWords(dst []byte, ws []uint32) []byte {
	for _, w := range ws {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], w)
		dst = append(dst, b[:]...)
	}
	return dst
}

// Ratio is uncompressed size over compressed size, the paper's metric
// (compression ratios are represented as uncompressed ÷ compressed).
func Ratio(rawBytes int, compressedBits int) float64 {
	if compressedBits == 0 {
		compressedBits = 1
	}
	return float64(rawBytes*8) / float64(compressedBits)
}

// indexBits returns the pointer width needed to address n dictionary
// entries — the "pointer overhead" at the heart of Fig 3.
func indexBits(n int) int {
	b := 0
	for (1 << uint(b)) < n {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
