package compress

import (
	"fmt"

	"cable/internal/bits"
)

// Zero is the simplest link encoder class the paper cites (dynamic zero
// compression): each 32-bit word carries a 1-bit flag — 0 for a zero
// word, 1 followed by the raw word. It is the floor any scheme should
// beat and the reason zero-dominant benchmarks compress well everywhere.
type Zero struct{}

// NewZero returns the zero-word encoder.
func NewZero() *Zero { return &Zero{} }

// Name implements Engine.
func (*Zero) Name() string { return "zero" }

// CompressScratch implements Engine: the source words and the bit buffer
// live in s. refs are ignored.
func (*Zero) CompressScratch(s *Scratch, line []byte, refs [][]byte) Encoded {
	s.src = AppendWords(s.src[:0], line)
	w := &s.w
	w.Reset()
	for _, word := range s.src {
		if word == 0 {
			w.WriteBit(0)
		} else {
			w.WriteBits(1<<32|uint64(word), 33) // flag and word as one write (see LBE)
		}
	}
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// DecompressFrom implements Engine. refs are ignored.
func (*Zero) DecompressFrom(s *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	out := s.out[:0]
	for len(out) < lineSize/4 {
		flag, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("zero: truncated stream: %w", err)
		}
		var v uint64
		if flag == 1 {
			if v, err = r.ReadBits(32); err != nil {
				return nil, err
			}
		}
		out = append(out, uint32(v))
	}
	return s.result(out), nil
}
