package compress

import (
	"fmt"

	"cable/internal/bits"
)

// CPack implements C-Pack (Chen et al., TVLSI 2010), the scalable
// pattern + dictionary cache compressor the paper uses as its primary
// baseline. Words are matched against a FIFO dictionary; full and
// partial matches are encoded with the C-Pack code table:
//
//	zzzz (zero word)            00                      2 bits
//	xxxx (no match)             01 + 32                34 bits
//	mmmm (full match)           10 + idx            2+idx bits
//	mmxx (upper half match)     1100 + idx + 16    20+idx bits
//	zzzx (zero upper 3 bytes)   1101 + 8               12 bits
//	mmmx (upper 3 bytes match)  1110 + idx + 8     12+idx bits
//
// The dictionary size is configurable: 64 B (16 entries) is the paper's
// CPACK, 128 B is CPACK128, and Fig 3 sweeps it to megabytes to expose
// pointer-width overhead. With zero dictionary entries CPack degrades
// to a pattern-only coder (zzzz/zzzx/xxxx).
type CPack struct {
	name    string
	entries int // dictionary capacity in 32-bit words
}

// NewCPack returns a C-Pack engine with dictBytes of FIFO dictionary.
func NewCPack(name string, dictBytes int) *CPack {
	if dictBytes < 0 || dictBytes%4 != 0 {
		panic(fmt.Sprintf("compress: cpack dictionary %dB not word aligned", dictBytes))
	}
	return &CPack{name: name, entries: dictBytes / 4}
}

// Name implements Engine.
func (c *CPack) Name() string { return c.name }

// dict is the FIFO word dictionary shared by compressor and
// decompressor. Insertion order alone determines contents, so both
// sides stay synchronized by construction.
type cpackDict struct {
	words []uint32
	cap   int
	next  int // FIFO cursor once full
}

func newCPackDict(capEntries int, refs [][]byte) *cpackDict {
	d := &cpackDict{cap: capEntries}
	d.seed(refs)
	return d
}

// seed pushes the reference lines' words, in order.
func (d *cpackDict) seed(refs [][]byte) {
	for _, r := range refs {
		for i := 0; i+4 <= len(r); i += 4 {
			d.push(Word32(r, i))
		}
	}
}

func (d *cpackDict) push(w uint32) {
	if d.cap == 0 {
		return
	}
	if len(d.words) < d.cap {
		d.words = append(d.words, w)
		return
	}
	d.words[d.next] = w
	d.next = (d.next + 1) % d.cap
}

// match returns the best dictionary match for w: the index and how many
// of the upper bytes match (4 = full, 3 = mmmx, 2 = mmxx, 0 = none).
func (d *cpackDict) match(w uint32) (idx, matchBytes int) {
	best := 0
	bestIdx := -1
	for i, e := range d.words {
		var m int
		switch {
		case e == w:
			m = 4
		case e>>8 == w>>8:
			m = 3
		case e>>16 == w>>16:
			m = 2
		default:
			continue
		}
		if m > best {
			best, bestIdx = m, i
			if m == 4 {
				break
			}
		}
	}
	return bestIdx, best
}

func (d *cpackDict) idxBits() int { return indexBits(d.cap) }

// CompressScratch implements Engine: dictionary, source words and bit
// buffer all live in s. refs seed the dictionary (used by the
// CABLE+CPACK configuration); the baseline link compressor passes nil
// and resets its dictionary per line, as C-Pack does per block.
func (c *CPack) CompressScratch(s *Scratch, line []byte, refs [][]byte) Encoded {
	d := cpackDict{words: s.dict[:0], cap: c.entries}
	d.seed(refs)
	ib := d.idxBits()
	src := AppendWords(s.src[:0], line)
	w := &s.w
	w.Reset()
	// Each code goes out as one write (see LBE).
	for _, word := range src {
		switch {
		case word == 0:
			w.WriteBits(0b00, 2) // zzzz
		case word>>8 == 0:
			w.WriteBits(0b1101<<8|uint64(word), 12) // zzzx
		default:
			idx, m := d.match(word)
			switch m {
			case 4:
				// mmmm: already in the dictionary, nothing to push.
				w.WriteBits(0b10<<uint(ib)|uint64(idx), 2+ib)
				continue
			case 3:
				w.WriteBits((0b1110<<uint(ib)|uint64(idx))<<8|uint64(word&0xFF), 12+ib) // mmmx
			case 2:
				w.WriteBits((0b1100<<uint(ib)|uint64(idx))<<16|uint64(word&0xFFFF), 20+ib) // mmxx
			default:
				w.WriteBits(0b01<<32|uint64(word), 34) // xxxx
			}
			d.push(word)
		}
	}
	s.dict, s.src = d.words, src
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// DecompressFrom implements Engine: dictionary, decoded words and
// result bytes live in s.
func (c *CPack) DecompressFrom(s *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	d := cpackDict{words: s.dict[:0], cap: c.entries}
	d.seed(refs)
	ib := d.idxBits()
	nWords := lineSize / 4
	out := s.out[:0]
	for len(out) < nWords {
		b0, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("cpack: truncated stream: %w", err)
		}
		if b0 == 0 {
			b1, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			if b1 == 0 { // 00 zzzz
				out = append(out, 0)
				continue
			}
			// 01 xxxx
			v, err := r.ReadBits(32)
			if err != nil {
				return nil, err
			}
			out = append(out, uint32(v))
			d.push(uint32(v))
			continue
		}
		b1, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if b1 == 0 { // 10 mmmm
			idx, err := r.ReadBits(ib)
			if err != nil {
				return nil, err
			}
			if int(idx) >= len(d.words) {
				return nil, fmt.Errorf("cpack: dictionary index %d out of range %d", idx, len(d.words))
			}
			out = append(out, d.words[idx])
			continue
		}
		// 11xx prefixes
		b2, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		b3, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		switch b2<<1 | b3 {
		case 0b00: // 1100 mmxx
			idx, err := r.ReadBits(ib)
			if err != nil {
				return nil, err
			}
			low, err := r.ReadBits(16)
			if err != nil {
				return nil, err
			}
			if int(idx) >= len(d.words) {
				return nil, fmt.Errorf("cpack: dictionary index %d out of range %d", idx, len(d.words))
			}
			word := d.words[idx]&0xFFFF0000 | uint32(low)
			out = append(out, word)
			d.push(word)
		case 0b01: // 1101 zzzx
			low, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			out = append(out, uint32(low))
		case 0b10: // 1110 mmmx
			idx, err := r.ReadBits(ib)
			if err != nil {
				return nil, err
			}
			low, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			if int(idx) >= len(d.words) {
				return nil, fmt.Errorf("cpack: dictionary index %d out of range %d", idx, len(d.words))
			}
			word := d.words[idx]&0xFFFFFF00 | uint32(low)
			out = append(out, word)
			d.push(word)
		default:
			return nil, fmt.Errorf("cpack: invalid code 1111")
		}
	}
	s.dict = d.words // retain grown capacity
	return s.result(out), nil
}
