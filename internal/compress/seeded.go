package compress

import "cable/internal/bits"

// SeededLZSS adapts the streaming LZSS coder to the Engine interface for
// the CABLE+gzip configuration of Fig 20: each line is compressed
// against a fresh window primed with the reference lines, instead of a
// persistent link-wide window.
type SeededLZSS struct {
	name   string
	window int
}

// NewSeededLZSS returns a per-line, reference-seeded LZSS engine.
func NewSeededLZSS(name string, window int) *SeededLZSS {
	return &SeededLZSS{name: name, window: window}
}

// Name implements Engine.
func (s *SeededLZSS) Name() string { return s.name }

// CompressScratch implements Engine. The window coder lives in scr, not
// in the engine (which link ends share): each line Resets it — no table
// clear — and re-primes it with refs.
func (s *SeededLZSS) CompressScratch(scr *Scratch, line []byte, refs [][]byte) Encoded {
	if scr.lz == nil || scr.lz.window != s.window {
		scr.lz = NewLZSS(s.name, s.window)
	}
	z := scr.lz
	z.Reset()
	for _, r := range refs {
		z.appendHistory(r)
	}
	return z.CompressScratch(scr, line)
}

// DecompressFrom implements Engine: a fresh window decoder primed with
// refs, as the compressing side's is. The scratch is not used.
func (s *SeededLZSS) DecompressFrom(_ *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	d := NewLZSSDecoder(s.window)
	for _, ref := range refs {
		d.history = append(d.history, ref...)
	}
	return d.DecompressFrom(r, lineSize)
}
