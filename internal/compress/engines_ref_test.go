package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"cable/internal/bits"
	"cable/internal/sig"
)

// The allocating Compress bodies the scratch-backed engines replaced,
// kept verbatim as references: the baseline columns of Fig 11-13 and 16
// are these engines' exact bit counts, so the scratch paths must emit
// the same streams.

func segments(line []byte, size int) []uint64 {
	n := len(line) / size
	vals := make([]uint64, n)
	for i := 0; i < n; i++ {
		switch size {
		case 8:
			vals[i] = binary.LittleEndian.Uint64(line[i*8:])
		case 4:
			vals[i] = uint64(binary.LittleEndian.Uint32(line[i*4:]))
		case 2:
			vals[i] = uint64(binary.LittleEndian.Uint16(line[i*2:]))
		}
	}
	return vals
}

// tryLayout attempts one base+delta layout. It returns the encoded size
// in bits and the chosen arbitrary base, or ok=false.
func tryLayout(vals []uint64, baseSize, deltaSize int) (base uint64, mask []bool, ok bool) {
	mask = make([]bool, len(vals)) // true → immediate (zero base)
	haveBase := false
	for i, v := range vals {
		if fitsSigned(int64(v), deltaSize) || fitsSigned(signExtend(v, baseSize), deltaSize) {
			mask[i] = true
			continue
		}
		if !haveBase {
			base, haveBase = v, true
		}
		d := int64(v) - int64(base)
		if !fitsSigned(d, deltaSize) {
			return 0, nil, false
		}
	}
	return base, mask, true
}

func bdiSizeBits(tag int, nVals int) int {
	l := bdiLayouts[tag]
	// tag + base + per-value (1 mask bit + delta bytes)
	return bdiTagBits + l.base*8 + nVals*(1+l.delta*8)
}

func refBDICompress(line []byte) Encoded {
	var w bits.Writer
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
	var bestMask []bool
	for _, tag := range bdiOrder {
		l := bdiLayouts[tag]
		if len(line)%l.base != 0 {
			continue
		}
		vals := segments(line, l.base)
		base, mask, ok := tryLayout(vals, l.base, l.delta)
		if !ok {
			continue
		}
		if sz := bdiSizeBits(tag, len(vals)); sz < bestBits {
			bestTag, bestBits, bestBase, bestMask = tag, sz, base, mask
		}
	}
	if bestTag == bdiRaw {
		w.WriteBits(bdiRaw, bdiTagBits)
		w.WriteBytes(line)
		return Encoded{Data: w.Bytes(), NBits: w.Len()}
	}
	l := bdiLayouts[bestTag]
	vals := segments(line, l.base)
	w.WriteBits(uint64(bestTag), bdiTagBits)
	w.WriteBits(bestBase, l.base*8)
	for i, v := range vals {
		if bestMask[i] {
			w.WriteBit(1)
			w.WriteBits(v&deltaMask(l.delta), l.delta*8)
		} else {
			w.WriteBit(0)
			d := uint64(int64(v) - int64(bestBase))
			w.WriteBits(d&deltaMask(l.delta), l.delta*8)
		}
	}
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

func refCPackCompress(c *CPack, line []byte, refs [][]byte) Encoded {
	d := &cpackDict{cap: c.entries}
	for _, r := range refs {
		for _, w := range Words(r) {
			d.push(w)
		}
	}
	ib := d.idxBits()
	var w bits.Writer
	for _, word := range Words(line) {
		switch {
		case word == 0:
			w.WriteBits(0b00, 2) // zzzz
		case word>>8 == 0:
			w.WriteBits(0b1101, 4) // zzzx
			w.WriteBits(uint64(word&0xFF), 8)
		default:
			idx, m := d.match(word)
			switch m {
			case 4:
				w.WriteBits(0b10, 2) // mmmm
				w.WriteBits(uint64(idx), ib)
			case 3:
				w.WriteBits(0b1110, 4) // mmmx
				w.WriteBits(uint64(idx), ib)
				w.WriteBits(uint64(word&0xFF), 8)
				d.push(word)
			case 2:
				w.WriteBits(0b1100, 4) // mmxx
				w.WriteBits(uint64(idx), ib)
				w.WriteBits(uint64(word&0xFFFF), 16)
				d.push(word)
			default:
				w.WriteBits(0b01, 2) // xxxx
				w.WriteBits(uint64(word), 32)
				d.push(word)
			}
		}
	}
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

func refFPCCompress(line []byte) Encoded {
	var w bits.Writer
	words := Words(line)
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

// refLBEDict is LBE's dictionary as the encoder searched it before the
// position index: two linear scans over every stored word.
type refLBEDict struct {
	words []uint32
	cap   int
}

func (d *refLBEDict) push(w uint32) {
	if len(d.words) < d.cap {
		d.words = append(d.words, w)
	}
}

func (d *refLBEDict) longestRun(src []uint32, p int) (idx, length int) {
	best, bestIdx := 0, -1
	w0 := src[p]
	for i, e := range d.words {
		if e != w0 {
			continue
		}
		l := matchLen32(d.words[i:], src[p:], lbeMaxRun)
		if l > best {
			best, bestIdx = l, i
		}
	}
	return bestIdx, best
}

func (d *refLBEDict) partialMatch(w uint32) (idx, matchBytes int) {
	best, bestIdx := 0, -1
	for i, e := range d.words {
		x := e ^ w
		if x>>16 != 0 {
			continue
		}
		if x>>8 == 0 {
			return i, 3
		}
		if best < 2 {
			best, bestIdx = 2, i
		}
	}
	return bestIdx, best
}

func refLBECompress(l *LBE, line []byte, refs [][]byte) Encoded {
	d := &refLBEDict{cap: l.entries}
	for _, r := range refs {
		for i := 0; i+4 <= len(r); i += 4 {
			d.push(Word32(r, i))
		}
	}
	ib := indexBits(d.cap)
	src := Words(line)
	var w bits.Writer
	for p := 0; p < len(src); {
		zl := zeroRun32(src[p:], lbeMaxRun)
		var idx, rl int
		if zl < lbeMaxRun {
			idx, rl = d.longestRun(src, p)
		}
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
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// FuzzLBEIndexParity is the differential check of the indexed
// dictionary search against the linear scans: a random line stream with
// 0-3 of its earlier lines as references, through one long-lived
// Scratch, must give the scan's bits line for line and decode back. The
// three shapes are the tree's (64-word dictionary, 64-byte lines), a
// dictionary one reference overflows, and 128-byte lines under a
// 256-word dictionary, whose three references run past the 64 words the
// index covers.
func FuzzLBEIndexParity(f *testing.F) {
	for c := 0; c < 3; c++ {
		f.Add(int64(c+1), uint8(c))
	}
	f.Fuzz(func(t *testing.T, seed int64, which uint8) {
		shape := []struct{ dictBytes, lineBytes int }{{256, 64}, {32, 64}, {1024, 128}}[which%3]
		l := NewLBE("lbe", shape.dictBytes)
		rng := rand.New(rand.NewSource(seed))
		var scr Scratch
		var earlier [][]byte
		for i := 0; i < 256; i++ {
			var line []byte
			for len(line) < shape.lineBytes {
				line = append(line, engineTestLine(rng, earlier)...)
			}
			refs := earlier[:min(len(earlier), rng.Intn(4))]
			got, want := l.CompressScratch(&scr, line, refs), refLBECompress(l, line, refs)
			if got.NBits != want.NBits || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("line %d %x, %d refs: index emits %d bits %x, scan %d bits %x", i, line, len(refs), got.NBits, got.Data, want.NBits, want.Data)
			}
			if back, err := DecompressWith(l, nil, got, refs, len(line)); err != nil || !bytes.Equal(back, line) {
				t.Fatalf("line %d: round trip: %x, %v", i, back, err)
			}
			if len(earlier) < 8 {
				earlier = append(earlier, line)
			} else {
				earlier[rng.Intn(8)] = line
			}
		}
	})
}

func refSeededCompress(s *SeededLZSS, line []byte, refs [][]byte) Encoded {
	z := newRefLZSS(s.name, s.window)
	for _, r := range refs {
		z.appendHistory(r)
	}
	return z.Compress(line)
}

// zeroHeavyLine draws a 64-byte line of word-aligned zero runs of every
// length between sparse words, most of them copied from the same or a
// nearby word position of an earlier line (so runs start inside zeros
// and sit at shifted dictionary positions), some with the low byte or
// half changed: what LBE's zero code, run code and partial codes
// compete over.
func zeroHeavyLine(rng *rand.Rand, earlier [][]byte) []byte {
	line := make([]byte, 64)
	for j := rng.Intn(6); j < 16; j += 1 + rng.Intn(6) {
		for k := 1 + rng.Intn(3); k > 0 && j < 16; k, j = k-1, j+1 {
			w := rng.Uint32() >> uint(8*rng.Intn(4))
			if len(earlier) > 0 && rng.Intn(4) > 0 {
				if e := earlier[rng.Intn(len(earlier))]; len(e) == 64 {
					w = Word32(e, 4*((j+rng.Intn(3)+15)%16))
				}
				switch rng.Intn(6) {
				case 0:
					w ^= uint32(rng.Intn(256))
				case 1:
					w ^= uint32(rng.Intn(1 << 16))
				}
			}
			binary.LittleEndian.PutUint32(line[4*j:], w)
		}
	}
	return line
}

// engineTestLine draws a 64-byte line: the LZSS stream classes, zero-
// heavy lines, and base+delta arrays at each BDI granularity with
// immediates mixed in.
func engineTestLine(rng *rand.Rand, earlier [][]byte) []byte {
	if rng.Intn(4) == 0 {
		return zeroHeavyLine(rng, earlier)
	}
	if rng.Intn(3) > 0 {
		line := make([]byte, 64)
		copy(line, lzssTestLine(rng, earlier))
		return line
	}
	line := make([]byte, 64)
	size := []int{8, 4, 2}[rng.Intn(3)]
	base := rng.Uint64()
	spread := int64(1) << uint(8*[]int{1, 2, 4}[rng.Intn(3)]-1)
	for i := 0; i < 64; i += size {
		v := base + uint64(rng.Int63n(2*spread+2)-spread-1) // a step past each limit too
		if rng.Intn(4) == 0 {
			v = uint64(rng.Int63n(2*spread) - spread) // immediate
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		copy(line[i:i+size], b[:])
	}
	return line
}

func refZeroCompress(line []byte) Encoded {
	var w bits.Writer
	for _, word := range Words(line) {
		if word == 0 {
			w.WriteBit(0)
		} else {
			w.WriteBit(1)
			w.WriteBits(uint64(word), 32)
		}
	}
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// TestEngineBodiesMatchReference drives every engine's one encoder body
// through one long-lived Scratch per engine, as a meter holds it,
// against the retained bodies. The oracle's reference is its own
// allocating Compress, on every tenth line (it is the slow one).
func TestEngineBodiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bdi, fpc, zero, oracle := NewBDI(), NewFPC(), NewZero(), NewOracle()
	cpacks := []*CPack{NewCPack("cpack", 64), NewCPack("cpack128", 128), NewCPack("cpack0", 0)}
	seeded := NewSeededLZSS("gzip-seeded", 32<<10)
	lbes := []*LBE{NewLBE("lbe256", 256), NewLBE("lbe1k", 1024), NewLBE("lbe32", 32)}
	var scr [11]Scratch
	var earlier [][]byte
	for i := 0; i < 20000; i++ {
		line := engineTestLine(rng, earlier)
		refs := earlier[:min(len(earlier), rng.Intn(4))]
		if len(earlier) < 8 {
			earlier = append(earlier, line)
		} else {
			earlier[rng.Intn(8)] = line
		}
		check := func(name string, got, want Encoded) {
			t.Helper()
			if got.NBits != want.NBits || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("line %d %x, %d refs: %s emits %d bits %x, reference %d bits %x", i, line, len(refs), name, got.NBits, got.Data, want.NBits, want.Data)
			}
		}
		check("bdi", bdi.CompressScratch(&scr[0], line, refs), refBDICompress(line))
		check("fpc", fpc.CompressScratch(&scr[1], line, refs), refFPCCompress(line))
		for j, c := range cpacks {
			check(c.Name(), c.CompressScratch(&scr[2+j], line, refs), refCPackCompress(c, line, refs))
		}
		check("gzip-seeded", seeded.CompressScratch(&scr[5], line, refs), refSeededCompress(seeded, line, refs))
		for j, l := range lbes {
			check(l.Name(), l.CompressScratch(&scr[6+j], line, refs), refLBECompress(l, line, refs))
		}
		check("zero", zero.CompressScratch(&scr[9], line, refs), refZeroCompress(line))
		if i%10 == 0 {
			check("oracle", oracle.CompressScratch(&scr[10], line, refs), oracle.Compress(line, refs))
		}
	}
}

// TestEngineScratchAllocs pins every table engine's allocations per line
// once its Scratch and DecScratch are warm. Only two engines allocate,
// each by design: the oracle is Fig 20's upper bound and builds its
// byte region and both arms' streams per line, and gzip-seeded decodes
// through a fresh window decoder per line.
func TestEngineScratchAllocs(t *testing.T) {
	want := map[string][2]float64{"oracle": {23, 0}, "gzip-seeded": {0, 3}} // {compress, decompress}
	type job struct {
		line []byte
		refs [][]byte
		enc  Encoded
	}
	rng := rand.New(rand.NewSource(30))
	lines := make([][]byte, 64)
	for i := range lines {
		lines[i] = engineTestLine(rng, lines[:i])
	}
	for _, name := range EngineNames() {
		e, err := NewEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		var scr Scratch
		var dec DecScratch
		// Warm both scratches: every line, with up to three earlier ones
		// as references, compressed once and decoded once.
		jobs := make([]job, len(lines))
		for i, line := range lines {
			refs := lines[max(i-3, 0):i]
			enc := e.CompressScratch(&scr, line, refs)
			jobs[i] = job{line, refs, Encoded{Data: append([]byte(nil), enc.Data...), NBits: enc.NBits}}
			if _, err := DecompressWith(e, &dec, jobs[i].enc, refs, len(line)); err != nil {
				t.Fatal(err)
			}
		}
		k := 0
		next := func() *job { k++; return &jobs[k%len(jobs)] }
		comp := testing.AllocsPerRun(len(jobs), func() {
			j := next()
			e.CompressScratch(&scr, j.line, j.refs)
		})
		decomp := testing.AllocsPerRun(len(jobs), func() {
			j := next()
			if _, err := DecompressWith(e, &dec, j.enc, j.refs, len(j.line)); err != nil {
				t.Fatal(err)
			}
		})
		if got := [2]float64{comp, decomp}; got != want[name] {
			t.Errorf("%s: %v compress and %v decompress allocations a line, want %v", name, comp, decomp, want[name])
		}
	}
}
