package compress

import (
	"fmt"

	"cable/internal/bits"
)

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

// Compress implements Engine.
func (s *SeededLZSS) Compress(line []byte, refs [][]byte) Encoded {
	// The throwaway scratch dies here, so the result owns its bits.
	var scr Scratch
	return s.CompressScratch(&scr, line, refs)
}

// CompressScratch implements ScratchEngine. The window coder lives in
// scr, not in the engine (which link ends share): each line Resets it —
// no table clear — and re-primes it with refs. The returned Encoded
// aliases scr.
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

// Decompress implements Engine.
func (s *SeededLZSS) Decompress(enc Encoded, refs [][]byte, lineSize int) ([]byte, error) {
	return DecompressWith(s, nil, enc, refs, lineSize)
}

// DecompressFrom implements Engine: a fresh window decoder primed with
// refs, as the compressing side's is. The scratch is not used.
func (s *SeededLZSS) DecompressFrom(_ *DecScratch, r *bits.Reader, refs [][]byte, lineSize int) ([]byte, error) {
	d := NewLZSSDecoder(s.window)
	for _, ref := range refs {
		d.history = append(d.history, ref...)
	}
	return d.decompressFrom(r, lineSize)
}

// Registry returns the evaluated engines by the names used throughout
// the paper's figures.
func Registry() map[string]Engine {
	return map[string]Engine{
		"bdi":      NewBDI(),
		"cpack":    NewCPack("cpack", 64),
		"cpack128": NewCPack("cpack128", 128),
		"lbe256":   NewLBE("lbe256", 256),
		"zero":     NewZero(),
		"fpc":      NewFPC(),
		"oracle":   NewOracle(),
	}
}

// NewEngine builds an engine by name, including the CABLE-seeded
// variants; it errors on unknown names.
func NewEngine(name string) (Engine, error) {
	switch name {
	case "bdi":
		return NewBDI(), nil
	case "cpack":
		return NewCPack("cpack", 64), nil
	case "cpack128":
		return NewCPack("cpack128", 128), nil
	case "lbe", "lbe256":
		return NewLBE(name, 256), nil
	case "zero":
		return NewZero(), nil
	case "fpc":
		return NewFPC(), nil
	case "oracle":
		return NewOracle(), nil
	case "gzip-seeded":
		return NewSeededLZSS(name, 32<<10), nil
	default:
		return nil, fmt.Errorf("compress: unknown engine %q", name)
	}
}
