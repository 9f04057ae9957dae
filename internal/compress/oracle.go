package compress

import (
	"fmt"

	"cable/internal/bits"
)

// Oracle is the CABLE+ORACLE upper bound of Fig 20: given the same
// reference lines as the other engines, it may exploit *any* data
// pattern — aligned duplicates, byte shifts, unaligned copies — that
// word-aligned engines miss.
//
// Coding (byte granularity):
//
//	0   + 8-bit literal                                  9 bits
//	10  + offset + 6-bit len     general match            3+off+6
//	11  + 2-bit ref + 6-bit len  aligned copy from the    11 bits
//	                             same position of ref r
//
// The general-match offset addresses the concatenated references plus
// the already-emitted prefix of the line; overlapping matches are legal
// (the decoder copies byte-by-byte).
//
// Because the oracle may exploit *any* pattern, it additionally
// considers the word-aligned LBE coding of the same line and keeps
// whichever is smaller (1-bit selector): byte-granular LZ wins on
// shifts and unaligned duplicates, word-aligned coding wins on
// FP-style partial-word matches.
type Oracle struct {
	lbe *LBE
}

// NewOracle returns the oracle engine.
func NewOracle() *Oracle { return &Oracle{lbe: NewLBE("oracle-lbe", 256)} }

// Name implements Engine.
func (*Oracle) Name() string { return "oracle" }

const (
	oracleMinMatch = 2
	oracleMaxMatch = oracleMinMatch + 63 // 6-bit length field
)

// CompressScratch implements Engine by forwarding to Compress: the
// oracle is Fig 20's upper bound, not a hardware design, so it allocates
// and leaves s unused.
func (o *Oracle) CompressScratch(_ *Scratch, line []byte, refs [][]byte) Encoded {
	return o.Compress(line, refs)
}

// Compress is the oracle's encoder body; the result owns its bits.
func (o *Oracle) Compress(line []byte, refs [][]byte) Encoded {
	lz := o.compressLZ(line, refs)
	var s Scratch
	wa := o.lbe.CompressScratch(&s, line, refs)
	var w bits.Writer
	best := lz
	if wa.NBits < lz.NBits {
		w.WriteBit(1)
		best = wa
	} else {
		w.WriteBit(0)
	}
	w.WriteStream(best.Data, best.NBits)
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// compressLZ is the byte-granular arm of the oracle.
func (*Oracle) compressLZ(line []byte, refs [][]byte) Encoded {
	var w bits.Writer
	var region []byte
	for _, r := range refs {
		region = append(region, r...)
	}
	refLen := len(region)
	ob := indexBits(refLen + len(line))
	srcByte := func(pos int) byte {
		if pos < refLen {
			return region[pos]
		}
		return line[pos-refLen]
	}
	for p := 0; p < len(line); {
		max := oracleMaxMatch
		if len(line)-p < max {
			max = len(line) - p
		}
		// Aligned copy: same offset within a reference.
		alignedLen, alignedRef := 0, 0
		for r, ref := range refs {
			if p >= len(ref) {
				continue
			}
			l := matchLen(ref[p:], line[p:], max)
			if l > alignedLen {
				alignedLen, alignedRef = l, r
			}
		}
		// General match anywhere in refs + emitted prefix.
		genLen, genOff := 0, 0
		for off := 0; off < refLen+p; off++ {
			l := 0
			for l < max && srcByte(off+l) == line[p+l] {
				l++
			}
			if l > genLen {
				genLen, genOff = l, off
				if genLen == max {
					break
				}
			}
		}
		// Pick by bits-per-byte: aligned costs 11 bits, general
		// 3+ob+6, literal 9.
		alignedOK := alignedLen >= oracleMinMatch
		genOK := genLen >= oracleMinMatch
		switch {
		case alignedOK && (!genOK || float64(11)/float64(alignedLen) <= float64(9+ob)/float64(genLen)):
			w.WriteBits(0b11, 2)
			w.WriteBits(uint64(alignedRef), 2)
			w.WriteBits(uint64(alignedLen-oracleMinMatch), 6)
			p += alignedLen
		case genOK:
			w.WriteBits(0b10, 2)
			w.WriteBits(uint64(genOff), ob)
			w.WriteBits(uint64(genLen-oracleMinMatch), 6)
			p += genLen
		default:
			w.WriteBit(0)
			w.WriteBits(uint64(line[p]), 8)
			p++
		}
	}
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// DecompressFrom implements Engine: the selector bit, then the chosen
// arm's decoder on the same reader.
func (o *Oracle) DecompressFrom(s *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	sel, err := r.ReadBit()
	if err != nil {
		return nil, fmt.Errorf("oracle: empty stream: %w", err)
	}
	if sel == 1 {
		return o.lbe.DecompressFrom(s, r, refs, lineSize)
	}
	return decompressLZ(s, r, refs, lineSize)
}

// decompressLZ inverts compressLZ.
func decompressLZ(s *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	var region []byte
	for _, ref := range refs {
		region = append(region, ref...)
	}
	refLen := len(region)
	ob := indexBits(refLen + lineSize)
	out := s.res[:0]
	for len(out) < lineSize {
		b0, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("oracle: truncated stream: %w", err)
		}
		if b0 == 0 {
			v, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			out = append(out, byte(v))
			continue
		}
		b1, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if b1 == 1 { // aligned copy
			refIdx, err := r.ReadBits(2)
			if err != nil {
				return nil, err
			}
			l64, err := r.ReadBits(6)
			if err != nil {
				return nil, err
			}
			if int(refIdx) >= len(refs) {
				return nil, fmt.Errorf("oracle: aligned copy from missing ref %d", refIdx)
			}
			ref := refs[refIdx]
			length := int(l64) + oracleMinMatch
			if len(out)+length > len(ref) {
				return nil, fmt.Errorf("oracle: aligned copy overruns reference")
			}
			out = append(out, ref[len(out):len(out)+length]...)
			continue
		}
		// General match.
		off64, err := r.ReadBits(ob)
		if err != nil {
			return nil, err
		}
		l64, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		off := int(off64)
		length := int(l64) + oracleMinMatch
		for i := 0; i < length; i++ {
			pos := off + i
			var b byte
			switch {
			case pos < refLen:
				b = region[pos]
			case pos-refLen < len(out):
				b = out[pos-refLen]
			default:
				return nil, fmt.Errorf("oracle: match offset %d beyond decoded prefix", pos)
			}
			out = append(out, b)
		}
	}
	if len(out) != lineSize {
		return nil, fmt.Errorf("oracle: decoded %d bytes, want %d", len(out), lineSize)
	}
	s.res = out
	return out, nil
}
