package compress

import (
	"fmt"

	"cable/internal/bits"
)

// FPC implements Frequent Pattern Compression (Alameldeen & Wood,
// UW-Madison TR-1500), the classic significance-based compressor cited
// by the paper's related work. Each 32-bit word gets a 3-bit prefix:
//
//	000 + 3-bit len   run of 1..8 zero words
//	001 + 4           4-bit sign-extended
//	010 + 8           8-bit sign-extended
//	011 + 16          16-bit sign-extended
//	100 + 16          halfword padded with a zero halfword (low half 0)
//	101 + 16          two halfwords, each a sign-extended byte
//	110 + 8           word of four repeated bytes
//	111 + 32          uncompressed word
//
// FPC is stateless per line; reference seeds are ignored.
type FPC struct{}

// NewFPC returns the FPC engine.
func NewFPC() *FPC { return &FPC{} }

// Name implements Engine.
func (*FPC) Name() string { return "fpc" }

func fitsSignedBits(w uint32, n int) bool {
	v := int32(w)
	limit := int32(1) << uint(n-1)
	return v >= -limit && v < limit
}

// CompressScratch implements Engine: the source words and the bit buffer
// live in s. refs are ignored.
func (*FPC) CompressScratch(s *Scratch, line []byte, refs [][]byte) Encoded {
	words := AppendWords(s.src[:0], line)
	s.src = words
	w := &s.w
	w.Reset()
	for p := 0; p < len(words); {
		word := words[p]
		if word == 0 {
			run := zeroRun32(words[p:], 8)
			w.WriteBits(0b000, 3)
			w.WriteBits(uint64(run-1), 3)
			p += run
			continue
		}
		switch {
		case fitsSignedBits(word, 4):
			w.WriteBits(0b001, 3)
			w.WriteBits(uint64(word&0xF), 4)
		case fitsSignedBits(word, 8):
			w.WriteBits(0b010, 3)
			w.WriteBits(uint64(word&0xFF), 8)
		case fitsSignedBits(word, 16):
			w.WriteBits(0b011, 3)
			w.WriteBits(uint64(word&0xFFFF), 16)
		case word&0xFFFF == 0:
			w.WriteBits(0b100, 3)
			w.WriteBits(uint64(word>>16), 16)
		case halfwordsFitBytes(word):
			// Each halfword, as a signed 16-bit value, fits a byte.
			w.WriteBits(0b101, 3)
			w.WriteBits(uint64(word>>16&0xFF), 8)
			w.WriteBits(uint64(word&0xFF), 8)
		case word&0xFF == (word>>8)&0xFF && word&0xFF == (word>>16)&0xFF && word&0xFF == word>>24:
			w.WriteBits(0b110, 3)
			w.WriteBits(uint64(word&0xFF), 8)
		default:
			w.WriteBits(0b111, 3)
			w.WriteBits(uint64(word), 32)
		}
		p++
	}
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// halfwordsFitBytes reports whether both 16-bit halves of word are
// sign-extended bytes.
func halfwordsFitBytes(word uint32) bool {
	lo, hi := int16(word&0xFFFF), int16(word>>16)
	return lo >= -128 && lo < 128 && hi >= -128 && hi < 128
}

func signExtend32(v uint64, n int) uint32 {
	shift := uint(32 - n)
	return uint32(int32(uint32(v)<<shift) >> shift)
}

// DecompressFrom implements Engine. refs are ignored.
func (*FPC) DecompressFrom(s *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	nWords := lineSize / 4
	out := s.out[:0]
	for len(out) < nWords {
		code, err := r.ReadBits(3)
		if err != nil {
			return nil, fmt.Errorf("fpc: truncated stream: %w", err)
		}
		switch code {
		case 0b000:
			n, err := r.ReadBits(3)
			if err != nil {
				return nil, err
			}
			for i := uint64(0); i <= n; i++ {
				out = append(out, 0)
			}
		case 0b001:
			v, err := r.ReadBits(4)
			if err != nil {
				return nil, err
			}
			out = append(out, signExtend32(v, 4))
		case 0b010:
			v, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			out = append(out, signExtend32(v, 8))
		case 0b011:
			v, err := r.ReadBits(16)
			if err != nil {
				return nil, err
			}
			out = append(out, signExtend32(v, 16))
		case 0b100:
			v, err := r.ReadBits(16)
			if err != nil {
				return nil, err
			}
			out = append(out, uint32(v)<<16)
		case 0b101:
			hi, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			lo, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			word := (signExtend32(hi, 8)&0xFFFF)<<16 | signExtend32(lo, 8)&0xFFFF
			out = append(out, word)
		case 0b110:
			b, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			v := uint32(b)
			out = append(out, v|v<<8|v<<16|v<<24)
		case 0b111:
			v, err := r.ReadBits(32)
			if err != nil {
				return nil, err
			}
			out = append(out, uint32(v))
		}
	}
	if len(out) != nWords {
		return nil, fmt.Errorf("fpc: decoded %d words, want %d", len(out), nWords)
	}
	return s.result(out), nil
}
