package compress

import (
	"encoding/binary"
	"fmt"

	"cable/internal/bits"
	"cable/internal/sig"
)

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al.,
// PACT 2012), the representative non-dictionary baseline. A line is
// encoded as one base value plus narrow deltas; values near zero use an
// implicit zero base (the "immediate" part), selected per value by a
// one-bit mask.
//
// Encodings tried, in order of preference (best compression first):
//
//	zeros        line is all zero
//	rep8         line is one repeated 8-byte value
//	b8d1,b8d2,b8d4  8-byte base, 1/2/4-byte deltas
//	b4d1,b4d2       4-byte base, 1/2-byte deltas
//	b2d1            2-byte base, 1-byte deltas
//	raw          uncompressed fallback
//
// Every encoding carries a 4-bit tag.
type BDI struct{}

// NewBDI returns the BDI engine.
func NewBDI() *BDI { return &BDI{} }

// Name implements Engine.
func (*BDI) Name() string { return "bdi" }

const bdiTagBits = 4

// bdi encoding tags.
const (
	bdiZeros = iota
	bdiRep8
	bdiB8D1
	bdiB8D2
	bdiB8D4
	bdiB4D1
	bdiB4D2
	bdiB2D1
	bdiRaw
)

type bdiLayout struct {
	base  int // base size in bytes
	delta int // delta size in bytes
}

// bdiLayouts is indexed by tag; only the base+delta tags have an entry.
var bdiLayouts = [bdiRaw]bdiLayout{
	bdiB8D1: {8, 1},
	bdiB8D2: {8, 2},
	bdiB8D4: {8, 4},
	bdiB4D1: {4, 1},
	bdiB4D2: {4, 2},
	bdiB2D1: {2, 1},
}

// bdiOrder is the preference order for base+delta encodings.
var bdiOrder = [...]int{bdiB8D1, bdiB4D1, bdiB2D1, bdiB8D2, bdiB4D2, bdiB8D4}

// segment reads the i-th little-endian value of size bytes.
func segment(line []byte, i, size int) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(line[i*8:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(line[i*4:]))
	default:
		return uint64(binary.LittleEndian.Uint16(line[i*2:]))
	}
}

func fitsSigned(delta int64, bytes int) bool {
	limit := int64(1) << uint(bytes*8-1)
	return delta >= -limit && delta < limit
}

// signExtend interprets the low `bytes` bytes of v as a signed value.
func signExtend(v uint64, bytes int) int64 {
	shift := uint(64 - bytes*8)
	return int64(v<<shift) >> shift
}

// immediate reports whether v is coded against the implicit zero base:
// it is a narrow value as stored or as a signed value of the base size.
func (l bdiLayout) immediate(v uint64) bool {
	return fitsSigned(int64(v), l.delta) || fitsSigned(signExtend(v, l.base), l.delta)
}

// try attempts one base+delta layout: the first value that is not an
// immediate becomes the base, and every other one must be within a
// delta of it.
func (l bdiLayout) try(line []byte) (base uint64, ok bool) {
	haveBase := false
	for i, n := 0, len(line)/l.base; i < n; i++ {
		v := segment(line, i, l.base)
		if l.immediate(v) {
			continue
		}
		if !haveBase {
			base, haveBase = v, true
		}
		if !fitsSigned(int64(v)-int64(base), l.delta) {
			return 0, false
		}
	}
	return base, true
}

// sizeBits is tag + base + per-value (1 mask bit + delta bytes).
func (l bdiLayout) sizeBits(lineBytes int) int {
	return bdiTagBits + l.base*8 + lineBytes/l.base*(1+l.delta*8)
}

// CompressScratch implements Engine: a handful of compares and
// subtractions per layout straight off the line bytes, no value or mask
// buffers. BDI has no dictionary; refs are ignored.
func (*BDI) CompressScratch(s *Scratch, line []byte, refs [][]byte) Encoded {
	w := &s.w
	w.Reset()
	if sig.ZeroLine(line) {
		w.WriteBits(bdiZeros, bdiTagBits)
		return Encoded{Data: w.Bytes(), NBits: w.Len()}
	}
	if v, ok := repeated8(line); ok {
		w.WriteBits(bdiRep8, bdiTagBits)
		w.WriteBits(v, 64)
		return Encoded{Data: w.Bytes(), NBits: w.Len()}
	}
	bestTag := bdiRaw
	bestBits := bdiTagBits + len(line)*8
	var bestBase uint64
	for _, tag := range bdiOrder {
		l := bdiLayouts[tag]
		// Only a strictly smaller layout replaces the best so far.
		sz := l.sizeBits(len(line))
		if len(line)%l.base != 0 || sz >= bestBits {
			continue
		}
		if base, ok := l.try(line); ok {
			bestTag, bestBits, bestBase = tag, sz, base
		}
	}
	if bestTag == bdiRaw {
		w.WriteBits(bdiRaw, bdiTagBits)
		w.WriteBytes(line)
		return Encoded{Data: w.Bytes(), NBits: w.Len()}
	}
	l := bdiLayouts[bestTag]
	w.WriteBits(uint64(bestTag), bdiTagBits)
	w.WriteBits(bestBase, l.base*8)
	dbits := l.delta * 8
	for i, n := 0, len(line)/l.base; i < n; i++ {
		// Mask bit and delta go out as one write (see LBE).
		v := segment(line, i, l.base)
		if l.immediate(v) {
			w.WriteBits(1<<uint(dbits)|v&deltaMask(l.delta), 1+dbits)
		} else {
			w.WriteBits((v-bestBase)&deltaMask(l.delta), 1+dbits)
		}
	}
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

func deltaMask(bytes int) uint64 {
	if bytes >= 8 {
		return ^uint64(0)
	}
	return (1 << uint(bytes*8)) - 1
}

// DecompressFrom implements Engine: the result bytes live in s, so
// steady-state decodes allocate nothing.
func (*BDI) DecompressFrom(s *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	tag64, err := r.ReadBits(bdiTagBits)
	if err != nil {
		return nil, fmt.Errorf("bdi: %w", err)
	}
	tag := int(tag64)
	if cap(s.res) < lineSize {
		s.res = make([]byte, lineSize)
	}
	line := s.res[:lineSize]
	switch tag {
	case bdiZeros:
		clear(line)
		return line, nil
	case bdiRep8:
		v, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		for i := 0; i < lineSize; i += 8 {
			binary.LittleEndian.PutUint64(line[i:], v)
		}
		return line, nil
	case bdiRaw:
		res, err := r.AppendBytes(line[:0], lineSize)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	if tag >= len(bdiLayouts) {
		return nil, fmt.Errorf("bdi: invalid tag %d", tag)
	}
	l := bdiLayouts[tag]
	base, err := r.ReadBits(l.base * 8)
	if err != nil {
		return nil, err
	}
	n := lineSize / l.base
	if n*l.base != lineSize {
		clear(line) // segments don't cover the tail; keep it zero
	}
	for i := 0; i < n; i++ {
		imm, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		dRaw, err := r.ReadBits(l.delta * 8)
		if err != nil {
			return nil, err
		}
		d := signExtend(dRaw, l.delta)
		var v uint64
		if imm == 1 {
			v = uint64(d)
		} else {
			v = uint64(int64(base) + d)
		}
		v &= deltaMask(l.base)
		switch l.base {
		case 8:
			binary.LittleEndian.PutUint64(line[i*8:], v)
		case 4:
			binary.LittleEndian.PutUint32(line[i*4:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(line[i*2:], uint16(v))
		}
	}
	return line, nil
}

func repeated8(line []byte) (uint64, bool) {
	if len(line) < 8 || len(line)%8 != 0 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(line)
	for i := 8; i < len(line); i += 8 {
		if binary.LittleEndian.Uint64(line[i:]) != v {
			return 0, false
		}
	}
	return v, true
}
