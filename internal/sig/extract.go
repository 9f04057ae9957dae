package sig

import (
	"encoding/binary"
	"math/bits"
)

// WordSize is the signature sampling granularity in bytes. CABLE samples
// 32-bit words and shifts offsets by four bytes rather than one (§III-A),
// exploiting the 32/64-bit alignment of most language runtimes.
const WordSize = 4

// Signature is the hashed, shortened (32-bit) representation of a cache
// line used to index the hash table.
type Signature uint32

// IsTrivial reports whether a 32-bit word is trivial: 24 or more bits of
// leading zeroes or leading ones (Fig 6). Trivial words (zeroes, small
// positive/negative integers) are too common to identify a line.
func IsTrivial(w uint32) bool {
	return bits.LeadingZeros32(w) >= 24 || bits.LeadingZeros32(^w) >= 24
}

// Word returns the 32-bit little-endian word at byte offset off.
func Word(line []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(line[off : off+WordSize])
}

// Extractor turns cache lines into signatures. It is shared by the home
// and remote sides of a link, which must agree on hashing.
type Extractor struct {
	h *H3
	// insertOffsets are the default sampling positions used when
	// inserting a line into the hash table (Fig 5). Only two
	// signatures are inserted per line to keep hash collisions low
	// (§III-B).
	insertOffsets []int
}

// InsertOffsetsN spaces n sampling positions evenly across the line
// (the bucket-count ablation; n=2 reproduces the paper's default).
func InsertOffsetsN(lineSize, n int) []int {
	if n < 1 {
		n = 1
	}
	if n > lineSize/WordSize {
		n = lineSize / WordSize
	}
	offs := make([]int, n)
	for i := range offs {
		offs[i] = (i * lineSize / n) &^ (WordSize - 1)
	}
	return offs
}

// NewExtractor builds an extractor for the given line size using a
// deterministic H3 seed and the paper's two insert offsets.
func NewExtractor(lineSize int, seed int64) *Extractor {
	return NewExtractorN(lineSize, seed, 2)
}

// NewExtractorN builds an extractor with n insert-signature offsets
// (§III-B studies keeping this low to limit hash collisions).
func NewExtractorN(lineSize int, seed int64, n int) *Extractor {
	return &Extractor{h: NewH3(seed), insertOffsets: InsertOffsetsN(lineSize, n)}
}

// hashWord computes the signature of one non-trivial word.
func (e *Extractor) hashWord(w uint32) Signature { return Signature(e.h.Hash(w)) }

// InsertSignatures extracts the (at most two) signatures used when a
// line is inserted into the hash table. Each default offset is moved
// forward past trivial words; duplicate signatures collapse.
func (e *Extractor) InsertSignatures(line []byte) []Signature {
	return e.AppendInsertSignatures(make([]Signature, 0, len(e.insertOffsets)), line)
}

// AppendInsertSignatures is the allocation-free form of
// InsertSignatures: it appends to dst (typically a reused per-end
// scratch buffer) and returns the extended slice.
func (e *Extractor) AppendInsertSignatures(dst []Signature, line []byte) []Signature {
	start := len(dst)
	for _, base := range e.insertOffsets {
		off := advance(line, base)
		if off < 0 {
			continue
		}
		s := e.hashWord(Word(line, off))
		if len(dst) == start || dst[len(dst)-1] != s {
			dst = append(dst, s)
		}
	}
	return dst
}

// SearchSignatures extracts every distinct non-trivial word signature in
// the line, up to max (the paper uses 16 for 64-byte lines, §III-C).
// A zero-filled line yields none.
func (e *Extractor) SearchSignatures(line []byte, max int) []Signature {
	return e.AppendSearchSignatures(make([]Signature, 0, max), line, max)
}

// AppendSearchSignatures is the allocation-free form of
// SearchSignatures: it appends at most max distinct signatures to dst
// and returns the extended slice. The line is scanned two words per
// 8-byte load (nonTrivialMask), so all-trivial stretches — the common
// case on integer-heavy lines — cost one branch per chunk.
// Deduplication is a linear scan over the appended region — max is
// small (16 in the paper), so this beats a map and allocates nothing.
func (e *Extractor) AppendSearchSignatures(dst []Signature, line []byte, max int) []Signature {
	start := len(dst)
	off := 0
	for ; off+2*WordSize <= len(line) && len(dst)-start < max; off += 2 * WordSize {
		m := nonTrivialMask(binary.LittleEndian.Uint64(line[off:]))
		if m == 0 {
			continue
		}
		if m&1 != 0 {
			dst = appendDistinct(dst, start, e.hashWord(Word(line, off)))
		}
		if m&2 != 0 && len(dst)-start < max {
			dst = appendDistinct(dst, start, e.hashWord(Word(line, off+WordSize)))
		}
	}
	if off+WordSize <= len(line) && len(dst)-start < max {
		if w := Word(line, off); !IsTrivial(w) {
			dst = appendDistinct(dst, start, e.hashWord(w))
		}
	}
	return dst
}

// appendDistinct appends s unless it already occurs in dst[start:].
func appendDistinct(dst []Signature, start int, s Signature) []Signature {
	for _, prev := range dst[start:] {
		if prev == s {
			return dst
		}
	}
	return append(dst, s)
}
