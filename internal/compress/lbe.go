package compress

import (
	"fmt"
	mathbits "math/bits"

	"cable/internal/bits"
)

// LBE is a word-granularity dictionary encoder modeled on the
// line-based encoder of MORC (Nguyen & Wentzlaff, MICRO 2015), the
// engine the paper found to pair best with CABLE. Its key property
// (§VI-E: "LBE can copy large aligned data blocks with lower overheads")
// is the run-copy code: one pointer amortized over up to 16 consecutive
// dictionary words, which is exactly what makes a cache-line reference
// cheap.
//
// Code table (idx is log2(capacity) wide):
//
//	00 + 4-bit len            zero run of len+1 words
//	01 + idx + 4-bit len      copy len+1 consecutive words from dict[idx:]
//	10 + 32-bit literal       literal word, appended to the dictionary
//	110 + idx + 8-bit byte    dict word with the low byte replaced
//	111 + idx + 16-bit half   dict word with the low half replaced
//
// The baseline LBE256 uses a 256-byte FIFO dictionary reset per line;
// CABLE+LBE seeds the dictionary with up to three 64-byte references.
type LBE struct {
	name    string
	entries int // dictionary capacity in words
}

// NewLBE returns an LBE engine with dictBytes of dictionary capacity.
func NewLBE(name string, dictBytes int) *LBE {
	if dictBytes <= 0 || dictBytes%4 != 0 {
		panic(fmt.Sprintf("compress: lbe dictionary %dB invalid", dictBytes))
	}
	return &LBE{name: name, entries: dictBytes / 4}
}

// Name implements Engine.
func (l *LBE) Name() string { return l.name }

const lbeMaxRun = 16 // 4-bit run length field encodes 1..16 words

type lbeDict struct {
	words []uint32
	cap   int
	ix    *lbeIndex // over the reference words; the decoder never searches
}

// push appends a word; when full the dictionary stops growing (seeded
// reference words are never displaced — they are the valuable content).
func (d *lbeDict) push(w uint32) {
	if len(d.words) < d.cap {
		d.words = append(d.words, w)
	}
}

// lbeIndexed is how many leading dictionary words the index covers: one
// mask bit each. Three 64-byte references are 48 words and one 256-byte
// reference is 64, so in every dictionary in the tree that is all of
// the reference words. The limit is stated, not hidden: a larger
// dictionary seeded past it (NewLBE builds any size) has the rest of its
// reference words scanned with the pushed ones, by the same loop, and
// FuzzLBEIndexParity runs that shape.
const (
	lbeIndexed = 64
	lbeBuckets = 64
)

// lbeIndex is the software stand-in for the CAM a hardware LBE matches
// its dictionary with (§VI-E). The dictionary a search sees is the
// reference words — dozens, fixed for the line — followed by the few
// literals the line has pushed so far. The index covers the first part:
// for every bucket of a word hash and of an upper-half hash, the set of
// positions that fall in it, as a bit mask, built once a line. A search
// visits one bucket's set bits and then scans the pushed words; both in
// ascending position, the order of a scan of the whole dictionary, so
// "the first position that ..." picks the position that scan picked. A
// line compressed without references builds nothing.
type lbeIndex struct {
	n     int  // words[:n] are in the masks, which are stale when n is 0
	zeros bool // some reference word is zero (a pushed word never is)
	word  [lbeBuckets]uint64
	half  [lbeBuckets]uint64
}

func lbeHash(v uint32) uint32 { return v * 0x9E3779B1 >> 26 } // < lbeBuckets

// build indexes the reference words a line's dictionary starts with.
func (ix *lbeIndex) build(words []uint32) {
	ix.n, ix.zeros = min(len(words), lbeIndexed), false
	if ix.n == 0 {
		return
	}
	ix.word, ix.half = [lbeBuckets]uint64{}, [lbeBuckets]uint64{}
	for i, w := range words {
		ix.zeros = ix.zeros || w == 0
		if i < lbeIndexed {
			ix.word[lbeHash(w)] |= 1 << uint(i)
			ix.half[lbeHash(w>>16)] |= 1 << uint(i)
		}
	}
}

// wordAt returns the indexed positions that may hold w, as a mask.
func (ix *lbeIndex) wordAt(w uint32) uint64 {
	if ix.n == 0 {
		return 0
	}
	return ix.word[lbeHash(w)]
}

// halfAt returns the indexed positions that may share w's upper half.
func (ix *lbeIndex) halfAt(w uint32) uint64 {
	if ix.n == 0 {
		return 0
	}
	return ix.half[lbeHash(w>>16)]
}

// longestRun finds the dictionary position giving the longest run match
// for src starting at word position p, whose first zl (< lbeMaxRun)
// words are zero: the first position with the strictly longest run, as a
// scan of the whole dictionary finds it. Run extension is word-packed
// (matchLen32), two dictionary words per comparison.
//
// Only a run longer than zl is ever used (the zero code covers zl words
// for fewer bits), and such a run holds the non-zero src[p+zl] exactly
// zl words in. So the candidates are the positions of that word, each
// moved back by zl: every position the scan could have chosen is among
// them in the scan's order, and the dictionary's zeros are never
// visited. A result of zl or less may differ from the scan's; the caller
// emits the zero code either way.
func (d *lbeDict) longestRun(src []uint32, p, zl int) (idx, length int) {
	anchor := p + zl
	if anchor == len(src) || zl >= len(d.words) {
		return -1, 0 // the line ends in these zeros, or no run holds them and more
	}
	// at[i] is the word a run starting at position i has at src[anchor].
	w, src, words, at := src[anchor], src[p:], d.words, d.words[zl:]
	maxLen := min(len(src), lbeMaxRun) // later positions cannot beat a run this long
	best, bestIdx := 0, -1
	for m := d.ix.wordAt(w) >> uint(zl); m != 0; m &= m - 1 {
		i := mathbits.TrailingZeros64(m)
		if at[i] != w || words[i] != src[0] {
			continue
		}
		if l := matchLen32(words[i:], src, lbeMaxRun); l > best {
			if best, bestIdx = l, i; l == maxLen {
				return bestIdx, best
			}
		}
	}
	for i := max(d.ix.n-zl, 0); i < len(at); i++ {
		if at[i] != w || words[i] != src[0] {
			continue
		}
		if l := matchLen32(words[i:], src, lbeMaxRun); l > best {
			if best, bestIdx = l, i; l == maxLen {
				return bestIdx, best
			}
		}
	}
	return bestIdx, best
}

// partialMatch finds the dictionary word sharing the most upper bytes
// with w: matchBytes is 3 (upper 3 bytes equal) or 2 (upper half), or 0.
// The first position reaching 3 wins, else the first reaching 2.
func (d *lbeDict) partialMatch(w uint32) (idx, matchBytes int) {
	words, n := d.words, d.ix.n
	best, bestIdx := 0, -1
	for m := d.ix.halfAt(w); m != 0; m &= m - 1 {
		j := mathbits.TrailingZeros64(m)
		if x := words[j] ^ w; x>>8 == 0 {
			return j, 3
		} else if x>>16 == 0 && best < 2 {
			best, bestIdx = 2, j
		}
	}
	for j, e := range words[n:] {
		if x := e ^ w; x>>8 == 0 {
			return n + j, 3
		} else if x>>16 == 0 && best < 2 {
			best, bestIdx = 2, n+j
		}
	}
	return bestIdx, best
}

func (d *lbeDict) idxBits() int { return indexBits(d.cap) }

// CompressScratch implements Engine: dictionary, its index, source words
// and bit buffer all live in s, so CABLE link ends, which compress one
// line per fill, allocate nothing in steady state.
func (l *LBE) CompressScratch(s *Scratch, line []byte, refs [][]byte) Encoded {
	d := &lbeDict{words: s.dict[:0], cap: l.entries, ix: &s.lbe}
	for _, r := range refs {
		for i := 0; i+4 <= len(r); i += 4 {
			d.push(Word32(r, i))
		}
	}
	d.ix.build(d.words)
	ib := d.idxBits()
	src := AppendWords(s.src[:0], line)
	w := &s.w
	w.Reset()
	for p := 0; p < len(src); {
		// Zero run; most words that are searched for are not zero.
		zl := 0
		if src[p] == 0 {
			zl = zeroRun32(src[p:], lbeMaxRun)
		}
		var idx, rl int
		if zl < lbeMaxRun && (zl == 0 || d.ix.zeros) {
			idx, rl = d.longestRun(src, p, zl)
		}
		// A full-length zero run wins unconditionally (rl is capped at
		// the same lbeMaxRun, so zl >= rl holds), hence the dictionary
		// search above is skipped for it. So does any zero run when no
		// reference word is zero: a run that beats it starts on one.
		// Cost per option, in saved bits vs. literals (32+2 each).
		// Prefer the option covering the most words; ties favor the
		// cheaper zero code.
		// Each code is emitted as a single WriteBits call: writing
		// a<<m|b in one call of n+m bits is, by the MSB-first
		// accumulator semantics, the same stream as writing a (n bits)
		// then b (m bits). Fusing fields saves the dominant per-call
		// overhead of the bit writer. All fused widths stay <= 64
		// (ib is at most ~10 for any sane dictionary).
		switch {
		case zl > 0 && zl >= rl:
			w.WriteBits(0b00<<4|uint64(zl-1), 6)
			p += zl
		case rl >= 2 || (rl == 1 && zl == 0):
			w.WriteBits(0b01<<uint(ib+4)|uint64(idx)<<4|uint64(rl-1), 6+ib)
			p += rl
		default:
			if mi, m := d.partialMatch(src[p]); m == 3 {
				w.WriteBits(0b110<<uint(ib+8)|uint64(mi)<<8|uint64(src[p]&0xFF), 11+ib)
				d.push(src[p])
			} else if m == 2 {
				w.WriteBits(0b111<<uint(ib+16)|uint64(mi)<<16|uint64(src[p]&0xFFFF), 19+ib)
				d.push(src[p])
			} else {
				w.WriteBits(0b10<<32|uint64(src[p]), 34)
				d.push(src[p])
			}
			p++
		}
	}
	s.dict, s.src = d.words, src
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// DecompressFrom implements Engine: the decode dictionary, word buffers
// and result bytes all live in s, so steady-state decodes allocate
// nothing.
func (l *LBE) DecompressFrom(s *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	d := lbeDict{words: s.dict[:0], cap: l.entries}
	for _, ref := range refs {
		s.out = AppendWords(s.out[:0], ref)
		for _, w := range s.out {
			d.push(w)
		}
	}
	ib := d.idxBits()
	nWords := lineSize / 4
	out := s.out[:0]
	for len(out) < nWords {
		code, err := r.ReadBits(2)
		if err != nil {
			return nil, fmt.Errorf("lbe: truncated stream: %w", err)
		}
		switch code {
		case 0b00:
			n, err := r.ReadBits(4)
			if err != nil {
				return nil, err
			}
			for i := uint64(0); i <= n; i++ {
				out = append(out, 0)
			}
		case 0b01:
			idx, err := r.ReadBits(ib)
			if err != nil {
				return nil, err
			}
			n, err := r.ReadBits(4)
			if err != nil {
				return nil, err
			}
			if int(idx)+int(n) >= len(d.words) {
				return nil, fmt.Errorf("lbe: run [%d,%d] out of dictionary range %d", idx, idx+n, len(d.words))
			}
			for i := uint64(0); i <= n; i++ {
				out = append(out, d.words[idx+i])
			}
		case 0b10:
			v, err := r.ReadBits(32)
			if err != nil {
				return nil, err
			}
			out = append(out, uint32(v))
			d.push(uint32(v))
		case 0b11:
			half, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			idx, err := r.ReadBits(ib)
			if err != nil {
				return nil, err
			}
			lowBits := 8
			mask := uint32(0xFFFFFF00)
			if half == 1 {
				lowBits = 16
				mask = 0xFFFF0000
			}
			low, err := r.ReadBits(lowBits)
			if err != nil {
				return nil, err
			}
			if int(idx) >= len(d.words) {
				return nil, fmt.Errorf("lbe: index %d out of dictionary range %d", idx, len(d.words))
			}
			word := d.words[idx]&mask | uint32(low)
			out = append(out, word)
			d.push(word)
		}
	}
	if len(out) != nWords {
		return nil, fmt.Errorf("lbe: decoded %d words, want %d", len(out), nWords)
	}
	s.dict = d.words // retain grown capacity
	return s.result(out), nil
}
