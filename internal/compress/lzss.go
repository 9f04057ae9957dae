package compress

import (
	"fmt"

	"cable/internal/bits"
	"cable/internal/pool"
)

// LZSS is the gzip-class streaming baseline (the paper models gzip as
// IBM's ASIC LZ77 with a 32 KB dictionary, the max configurable size).
// The sliding window persists across cache lines, so — exactly like a
// hardware gzip engine on a link — it benefits from inter-line locality
// in a single stream and suffers dictionary pollution when unrelated
// streams interleave (§VI-C).
//
// Coding: 1-bit flag, then either an 8-bit literal or a
// log2(window)-bit backwards offset plus 8-bit length (3..258 bytes,
// deflate's maximum).
type LZSS struct {
	name    string
	window  int
	offBits int
	history []byte
	// head and prev chain the window's 3-byte prefixes the way deflate
	// does: head[hash] is the position indexed last in its bucket,
	// prev[i] the one indexed before history[i]. Entries are absolute
	// stream position + 1; one at or below base predates the last Reset
	// or trim and ends its chain, so neither ever clears the table.
	head  []int32
	prev  []int32
	shift uint // 32 - log2(len(head))
	base  int  // absolute stream position of history[0]
}

const (
	lzssMinMatch = 3
	// lzssMaxMatch mirrors deflate's 258-byte maximum (8-bit length
	// field), which matters for long zero/value runs.
	lzssMaxMatch = lzssMinMatch + 255
	lzssLenBits  = 8
	// lzssMaxChain bounds the match search: the newest 64 positions
	// sharing the prefix are tried, in or out of the window.
	lzssMaxChain = 64
	// lzssRebase is where base wraps to zero (with one table clear) so
	// positions keep fitting an int32.
	lzssRebase = 1 << 30
)

// lzssPool holds released compressors, keyed by window size.
var lzssPool pool.Keyed[int, *LZSS]

// NewLZSS returns a streaming compressor with the given window size.
// When the pool holds a released compressor of that window it returns
// that one, Reset: a Reset compressor emits what a newly built one does.
func NewLZSS(name string, window int) *LZSS {
	if window < lzssMaxMatch || window > lzssRebase/4 {
		panic(fmt.Sprintf("compress: lzss window %d out of range", window))
	}
	if z, ok := lzssPool.Get(window); ok {
		z.name = name
		z.Reset()
		return z
	}
	// One bucket per window byte, within deflate's 2^8..2^15.
	hashBits := min(max(indexBits(window), 8), 15)
	return &LZSS{
		name:    name,
		window:  window,
		offBits: indexBits(window),
		head:    make([]int32, 1<<hashBits),
		shift:   uint(32 - hashBits),
	}
}

// Name returns the name the compressor was built with.
func (z *LZSS) Name() string { return z.name }

// Reset empties the window so the compressor can start a fresh stream,
// keeping its buffers. A Reset compressor emits byte-identical output
// to a newly built one.
func (z *LZSS) Reset() {
	z.retire()
	z.history = z.history[:0]
}

// Release hands the compressor to the next NewLZSS of its window. Only
// an owner that can prove nothing retains the compressor may call it,
// and must not use it afterwards: it may already belong to another.
func (z *LZSS) Release() { lzssPool.Put(z.window, z) }

func lzssKey(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
}

// retire moves base past every indexed position, which turns all chain
// entries stale at once.
func (z *LZSS) retire() {
	z.base += len(z.history)
	if z.base > lzssRebase {
		clear(z.head)
		z.base = 0
	}
}

func (z *LZSS) bucket(key uint32) uint32 { return key * 2654435761 >> z.shift }

// index appends history[i:i+3] to its bucket's chain.
func (z *LZSS) index(i int) {
	b := z.bucket(lzssKey(z.history[i:]))
	z.prev[i] = z.head[b]
	z.head[b] = int32(z.base + i + 1)
}

// appendHistory adds b to the window, indexing new 3-byte prefixes and
// trimming the window lazily. The order positions enter their chains
// decides which of two equally long matches findMatch reports, so it is
// part of the emitted bits: b's own positions first, then the two that
// straddle the previous append.
func (z *LZSS) appendHistory(b []byte) {
	start := len(z.history)
	n := start + len(b)
	if n > cap(z.history) {
		// Grow fourfold, but never past what the window can hold: two
		// windows and the line that tips the trim.
		c := min(max(4*n, 4096), max(2*z.window+len(b), n))
		z.history = append(make([]byte, 0, c), z.history...)
		z.prev = append(make([]int32, 0, c), z.prev...)[:c]
	}
	z.history = append(z.history, b...)
	for i := start; i+lzssMinMatch <= n; i++ {
		z.index(i)
	}
	for i := start - lzssMinMatch + 1; i >= 0 && i < start && i+lzssMinMatch <= n; i++ {
		z.index(i)
	}
	z.trim()
}

// trim cuts the history back to one window once it holds two, and
// re-chains the survivors in position order; amortized O(window).
func (z *LZSS) trim() {
	n := len(z.history)
	if n <= 2*z.window {
		return
	}
	z.retire()
	copy(z.history, z.history[n-z.window:])
	z.history = z.history[:z.window]
	for i := 0; i+lzssMinMatch <= z.window; i++ {
		z.index(i)
	}
}

// findMatch searches the window for the longest match of src, the
// bytes from offset p of the line being encoded. Chains are walked
// newest-first and the first of equally long candidates wins.
func (z *LZSS) findMatch(src []byte, p int) (dist, length int) {
	if len(src) < lzssMinMatch {
		return 0, 0
	}
	hist, key, base := z.history, lzssKey(src), int32(z.base)
	limit := min(len(src), lzssMaxMatch)
	best, bestDist := 0, 0
	for c, v := 0, z.head[z.bucket(key)]; v > base && c < lzssMaxChain; {
		h := int(v-base) - 1
		v = z.prev[h]
		if lzssKey(hist[h:]) != key {
			continue // a bucket neighbour, not a chain entry
		}
		c++
		d := len(hist) - h + p
		// Only a strictly longer candidate replaces best, and that one
		// agrees with src at offset best.
		if d > z.window || h+best >= len(hist) || hist[h+best] != src[best] {
			continue
		}
		if l := matchLen(hist[h:], src, limit); l > best {
			best, bestDist = l, d
			if best == limit {
				break
			}
		}
	}
	if best < lzssMinMatch {
		return 0, 0
	}
	return bestDist, best
}

// Compress encodes line against the window accumulated from all
// previous lines on this link, then appends line to the window. Matches
// never span into the line being encoded, so the decoder (whose window
// ends at the previous line) can always resolve them.
func (z *LZSS) Compress(line []byte) Encoded {
	// The throwaway scratch dies here, so the result owns its bits.
	var s Scratch
	return z.CompressScratch(&s, line)
}

// CompressScratch is Compress writing into s's reusable bit buffer, the
// form the stream meters use; the result aliases s.
func (z *LZSS) CompressScratch(s *Scratch, line []byte) Encoded {
	w := &s.w
	w.Reset()
	ob := z.offBits
	for p := 0; p < len(line); {
		dist, l := z.findMatch(line[p:], p)
		// Also consider intra-line matches, including overlapping
		// run matches (distance < length), which make zero/value
		// runs cheap: the decoder resolves them byte-by-byte.
		if id, il := intraLineMatch(line, p, l); il > l {
			dist, l = id, il
		}
		// Flag and fields go out as one write each way (see LBE).
		if l >= lzssMinMatch {
			w.WriteBits(1<<uint(ob+lzssLenBits)|uint64(dist-1)<<lzssLenBits|uint64(l-lzssMinMatch), 1+ob+lzssLenBits)
			p += l
		} else {
			w.WriteBits(uint64(line[p]), 1+8)
			p++
		}
	}
	z.appendHistory(line)
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// intraLineMatch finds the longest match for line[p:] whose source is an
// earlier position in the same line and which is longer than floor, the
// window match it has to beat; the smallest distance wins ties. A match
// of length l at distance d is valid iff line[p+i] == line[p+i-d] for
// all i < l — exactly the sequence a byte-at-a-time decoder reproduces,
// so d < l (overlap) is legal. Each position compares against the
// original line contents on both sides, so the word-packed matchLen over
// the two (overlapping) views computes the same predicate as the scalar
// loop.
func intraLineMatch(line []byte, p, floor int) (dist, length int) {
	limit := min(len(line)-p, lzssMaxMatch)
	best := max(floor, lzssMinMatch-1)
	if best >= limit {
		return 0, 0
	}
	for d := 1; d <= p; d++ {
		// A longer match starts like line[p:] and agrees at offset best.
		if line[p-d] != line[p] || line[p-d+best] != line[p+best] {
			continue
		}
		if l := matchLen(line[p-d:], line[p:], limit); l > best {
			best, dist = l, d
			if best == limit {
				break
			}
		}
	}
	if dist == 0 {
		return 0, 0
	}
	return dist, best
}

// LZSSDecoder mirrors LZSS on the receive side of the link.
type LZSSDecoder struct {
	window  int
	history []byte
}

// NewLZSSDecoder returns a decoder for a stream produced by an LZSS
// compressor with the same window.
func NewLZSSDecoder(window int) *LZSSDecoder {
	return &LZSSDecoder{window: window}
}

// Reset empties the decoder window for a fresh stream.
func (z *LZSSDecoder) Reset() {
	z.history = z.history[:0]
}

// DecompressFrom inverts Compress: it decodes a line from r against the
// window of previously decoded lines, appends the line to it, and leaves
// r after the last bit used.
func (z *LZSSDecoder) DecompressFrom(r *bits.Reader, lineSize int) ([]byte, error) {
	ob := indexBits(z.window)
	out := make([]byte, 0, lineSize)
	for len(out) < lineSize {
		flag, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("lzss: truncated stream: %w", err)
		}
		if flag == 0 {
			v, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			out = append(out, byte(v))
			continue
		}
		d64, err := r.ReadBits(ob)
		if err != nil {
			return nil, err
		}
		l64, err := r.ReadBits(lzssLenBits)
		if err != nil {
			return nil, err
		}
		dist := int(d64) + 1
		length := int(l64) + lzssMinMatch
		// Matches resolve against window + already-decoded bytes of
		// this line (the compressor only matches the window, but the
		// combined view is identical byte-for-byte).
		for i := 0; i < length; i++ {
			pos := len(z.history) + len(out) - dist
			if pos < 0 || pos >= len(z.history)+len(out) {
				return nil, fmt.Errorf("lzss: match distance %d out of range", dist)
			}
			var b byte
			if pos < len(z.history) {
				b = z.history[pos]
			} else {
				b = out[pos-len(z.history)]
			}
			out = append(out, b)
		}
	}
	if len(out) != lineSize {
		return nil, fmt.Errorf("lzss: decoded %d bytes, want %d", len(out), lineSize)
	}
	z.history = append(z.history, out...)
	if n := len(z.history); n > 2*z.window {
		copy(z.history, z.history[n-z.window:])
		z.history = z.history[:z.window]
	}
	return out, nil
}
