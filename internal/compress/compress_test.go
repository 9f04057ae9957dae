package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"cable/internal/bits"
)

const lineSize = 64

// lineGen produces the data-pattern families the paper's workloads
// exhibit: zero lines, repeated values, pointer-like words, near-copies.
func lineGen(rng *rand.Rand) []byte {
	line := make([]byte, lineSize)
	switch rng.Intn(6) {
	case 0: // all zero
	case 1: // repeated 8-byte value
		v := rng.Uint64()
		for i := 0; i < lineSize; i += 8 {
			binary.LittleEndian.PutUint64(line[i:], v)
		}
	case 2: // small integers (BDI friendly)
		base := rng.Uint32() & 0xFFFF
		for i := 0; i < lineSize; i += 4 {
			binary.LittleEndian.PutUint32(line[i:], base+uint32(rng.Intn(64)))
		}
	case 3: // pointer-like array with shared upper bits
		base := rng.Uint64() &^ 0xFFFF
		for i := 0; i < lineSize; i += 8 {
			binary.LittleEndian.PutUint64(line[i:], base|uint64(rng.Intn(1<<16)))
		}
	case 4: // random
		rng.Read(line)
	case 5: // sparse: mostly zero with a few random words
		for i := 0; i < 3; i++ {
			off := rng.Intn(lineSize/4) * 4
			binary.LittleEndian.PutUint32(line[off:], rng.Uint32())
		}
	}
	return line
}

func refGen(rng *rand.Rand, line []byte) [][]byte {
	n := rng.Intn(4)
	refs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		r := append([]byte(nil), line...)
		// Mutate a few words so references are similar-but-different.
		for k := 0; k < rng.Intn(6); k++ {
			off := rng.Intn(lineSize/4) * 4
			binary.LittleEndian.PutUint32(r[off:], rng.Uint32())
		}
		refs = append(refs, r)
	}
	return refs
}

func engines() []Engine {
	return []Engine{
		NewBDI(),
		NewCPack("cpack", 64),
		NewCPack("cpack128", 128),
		NewCPack("cpack0", 0),
		NewLBE("lbe256", 256),
		NewLBE("lbe1k", 1024),
		NewZero(),
		NewFPC(),
		NewOracle(),
		NewSeededLZSS("gzip-seeded", 32<<10),
	}
}

func TestEnginesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, e := range engines() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			for i := 0; i < 300; i++ {
				line := lineGen(rng)
				refs := refGen(rng, line)
				enc := CompressWith(e, nil, line, refs)
				got, err := DecompressWith(e, nil, enc, refs, lineSize)
				if err != nil {
					t.Fatalf("iter %d: decompress: %v", i, err)
				}
				if !bytes.Equal(got, line) {
					t.Fatalf("iter %d: round trip mismatch\n got %x\nwant %x", i, got, line)
				}
			}
		})
	}
}

// requireSelfDelimiting checks DecompressFrom's contract on one line:
// out of a reader holding e's stream at an odd bit offset with random
// bits after it, it returns DecompressWith's line and stops on the stream's
// last bit. The codec's frames rest on it — they pack payloads back to
// back with no length between them.
func requireSelfDelimiting(t *testing.T, e Engine, line []byte, refs [][]byte, junk uint64) {
	t.Helper()
	enc := CompressWith(e, nil, line, refs)
	want, err := DecompressWith(e, nil, enc, refs, len(line))
	if err != nil {
		t.Fatalf("%s: DecompressWith: %v", e.Name(), err)
	}
	lead := int(junk % 8)
	var w bits.Writer
	w.WriteBits(junk>>8, lead)
	w.WriteStream(enc.Data, enc.NBits)
	w.WriteBits(junk, 64)
	w.WriteBits(^junk, 64)
	r := bits.NewReader(w.Bytes(), w.Len())
	r.ReadBits(lead)
	var s DecScratch
	got, err := e.DecompressFrom(&s, r, refs, len(line))
	if err != nil {
		t.Fatalf("%s: DecompressFrom with %d junk bits after a %d-bit stream: %v", e.Name(), 128, enc.NBits, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: DecompressFrom mismatch\n got %x\nwant %x", e.Name(), got, want)
	}
	if used := w.Len() - lead - r.Remaining(); used != enc.NBits {
		t.Fatalf("%s: DecompressFrom consumed %d bits of a %d-bit stream", e.Name(), used, enc.NBits)
	}
}

// TestDecompressFromSelfDelimiting runs the contract over every engine
// of the table, on random, sparse and near-duplicate lines, with and
// without references.
func TestDecompressFromSelfDelimiting(t *testing.T) {
	for _, name := range EngineNames() {
		e, err := NewEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 300; i++ {
				line := lineGen(rng)
				refs := refGen(rng, line)
				if i%3 == 0 {
					refs = nil
				}
				requireSelfDelimiting(t, e, line, refs, rng.Uint64())
			}
		})
	}
}

func TestEnginesRoundTripQuick(t *testing.T) {
	for _, e := range engines() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			f := func(raw [lineSize]byte, seed int64) bool {
				line := raw[:]
				refs := refGen(rand.New(rand.NewSource(seed)), line)
				enc := CompressWith(e, nil, line, refs)
				got, err := DecompressWith(e, nil, enc, refs, lineSize)
				return err == nil && bytes.Equal(got, line)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestZeroLineIsTiny(t *testing.T) {
	zeroLine := make([]byte, lineSize)
	for _, e := range engines() {
		enc := CompressWith(e, nil, zeroLine, nil)
		// LZSS pays 15-bit offsets per run code (a real gzip would
		// Huffman-code these); everything else should reach 8x.
		want := 8.0
		if e.Name() == "gzip-seeded" {
			want = 4.0
		}
		if r := Ratio(lineSize, enc.NBits); r < want {
			t.Errorf("%s: zero line ratio %.1f < %.0f (%d bits)", e.Name(), r, want, enc.NBits)
		}
	}
}

func TestRandomLineExpandsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	line := make([]byte, lineSize)
	rng.Read(line)
	for _, e := range engines() {
		enc := CompressWith(e, nil, line, nil)
		// Worst-case expansion should stay modest (< 13% for the
		// worst coder here, LZSS literals at 9/8 bits per byte).
		if enc.NBits > lineSize*8*9/8+bdiTagBits {
			t.Errorf("%s: random line expanded to %d bits", e.Name(), enc.NBits)
		}
	}
}

func TestSeededEnginesExploitReferences(t *testing.T) {
	// A line that is a near-copy of a reference must compress far
	// better with the reference than without — the CABLE premise.
	rng := rand.New(rand.NewSource(3))
	ref := make([]byte, lineSize)
	rng.Read(ref)
	line := append([]byte(nil), ref...)
	binary.LittleEndian.PutUint32(line[20:], rng.Uint32())
	for _, name := range []string{"cpack128", "lbe256", "gzip-seeded", "oracle"} {
		e, err := NewEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		seeded := CompressWith(e, nil, line, [][]byte{ref}).NBits
		bare := CompressWith(e, nil, line, nil).NBits
		if seeded >= bare {
			t.Errorf("%s: seeded %d bits >= unseeded %d bits", name, seeded, bare)
		}
		if Ratio(lineSize, seeded) < 3 {
			t.Errorf("%s: near-copy with reference only reaches %.1fx", name, Ratio(lineSize, seeded))
		}
	}
}

func TestLBEAlignedBlockCopyBeatsCPack(t *testing.T) {
	// §VI-E: LBE copies large aligned blocks with lower overhead than
	// CPACK's per-word codes. An exact copy of a reference should cost
	// LBE far fewer bits.
	rng := rand.New(rand.NewSource(4))
	ref := make([]byte, lineSize)
	rng.Read(ref)
	line := append([]byte(nil), ref...)
	lbe := CompressWith(NewLBE("lbe", 256), nil, line, [][]byte{ref}).NBits
	cp := CompressWith(NewCPack("cpack", 256), nil, line, [][]byte{ref}).NBits
	if lbe >= cp {
		t.Fatalf("LBE %d bits should beat CPack %d bits on exact copy", lbe, cp)
	}
}

func TestCPackDictionarySweepMonotonicPointerCost(t *testing.T) {
	// Fig 3's mechanism: bigger dictionaries mean wider indices.
	small := NewCPack("s", 64)
	big := NewCPack("b", 1<<20)
	if got := indexBits(small.entries); got != 4 {
		t.Fatalf("64B dict index width = %d, want 4", got)
	}
	if got := indexBits(big.entries); got != 18 {
		t.Fatalf("1MB dict index width = %d, want 18", got)
	}
}

func TestLZSSStreamingRoundTrip(t *testing.T) {
	c := NewLZSS("gzip", 4096)
	d := NewLZSSDecoder(4096)
	rng := rand.New(rand.NewSource(5))
	pool := make([][]byte, 8)
	for i := range pool {
		pool[i] = lineGen(rng)
	}
	for i := 0; i < 500; i++ {
		var line []byte
		if rng.Intn(2) == 0 {
			// Near-copy of a pooled line: inter-line locality.
			line = append([]byte(nil), pool[rng.Intn(len(pool))]...)
			binary.LittleEndian.PutUint32(line[rng.Intn(16)*4:], rng.Uint32())
		} else {
			line = lineGen(rng)
		}
		enc := c.Compress(line)
		got, err := d.DecompressFrom(enc.Reader(), lineSize)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("line %d: stream desync\n got %x\nwant %x", i, got, line)
		}
	}
}

func TestLZSSLearnsStream(t *testing.T) {
	// Repeating the same line must get cheap once it is in the window.
	c := NewLZSS("gzip", 32<<10)
	rng := rand.New(rand.NewSource(6))
	line := make([]byte, lineSize)
	rng.Read(line)
	first := c.Compress(line).NBits
	second := c.Compress(line).NBits
	if second >= first/4 {
		t.Fatalf("repeat cost %d bits not ≪ first cost %d bits", second, first)
	}
}

func TestLZSSWindowEviction(t *testing.T) {
	// After the window slides past a line, matches to it must vanish
	// but the stream must stay decodable.
	window := 1024
	c := NewLZSS("gzip", window)
	d := NewLZSSDecoder(window)
	rng := rand.New(rand.NewSource(7))
	marker := make([]byte, lineSize)
	rng.Read(marker)
	push := func(line []byte) {
		enc := c.Compress(line)
		got, err := d.DecompressFrom(enc.Reader(), lineSize)
		if err != nil || !bytes.Equal(got, line) {
			t.Fatalf("desync after eviction: %v", err)
		}
	}
	push(marker)
	for i := 0; i < 64; i++ { // flush the window several times over
		push(lineGen(rng))
	}
	enc := c.Compress(marker)
	got, err := d.DecompressFrom(enc.Reader(), lineSize)
	if err != nil || !bytes.Equal(got, marker) {
		t.Fatalf("marker after eviction: %v", err)
	}
}

func TestWordsPutWordsInverse(t *testing.T) {
	f := func(raw [lineSize]byte) bool {
		return bytes.Equal(AppendPutWords(nil, Words(raw[:])), raw[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(64, 64); r != 8 {
		t.Fatalf("Ratio(64B,64b) = %v, want 8", r)
	}
	if r := Ratio(64, 0); r <= 0 {
		t.Fatalf("Ratio with 0 bits must stay positive, got %v", r)
	}
}

func TestNewEngineUnknown(t *testing.T) {
	if _, err := NewEngine("nope"); err == nil {
		t.Fatal("expected error for unknown engine")
	}
}

// TestRegistryNamesMatch checks the engine table: every name builds an
// engine reporting that name, and no name appears twice.
func TestRegistryNamesMatch(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range EngineNames() {
		e, err := NewEngine(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Name() != name || seen[name] {
			t.Errorf("table name %q: engine name %q, listed before %v", name, e.Name(), seen[name])
		}
		seen[name] = true
	}
}

func TestOracleHandlesByteShift(t *testing.T) {
	// The oracle's defining ability (Fig 20): unaligned duplicates.
	rng := rand.New(rand.NewSource(8))
	ref := make([]byte, lineSize)
	rng.Read(ref)
	line := make([]byte, lineSize)
	copy(line, ref[1:]) // byte-shifted copy
	line[lineSize-1] = 0x42
	o := NewOracle()
	shifted := o.Compress(line, [][]byte{ref}).NBits
	cp := CompressWith(NewCPack("cpack", 256), nil, line, [][]byte{ref}).NBits
	if shifted >= cp {
		t.Fatalf("oracle %d bits should beat cpack %d bits on byte-shifted copy", shifted, cp)
	}
	if Ratio(lineSize, shifted) < 4 {
		t.Fatalf("oracle only reaches %.1fx on byte-shifted copy", Ratio(lineSize, shifted))
	}
}

func TestBDIEncodesKnownPatterns(t *testing.T) {
	// Small-integer arrays should land in a narrow-delta encoding.
	line := make([]byte, lineSize)
	for i := 0; i < lineSize; i += 4 {
		binary.LittleEndian.PutUint32(line[i:], 1000+uint32(i))
	}
	enc := CompressWith(NewBDI(), nil, line, nil)
	if enc.NBits >= lineSize*8/2 {
		t.Fatalf("small-int array compresses to %d bits, want < %d", enc.NBits, lineSize*8/2)
	}
}

func TestFPCKnownPatterns(t *testing.T) {
	e := NewFPC()
	cases := []struct {
		name    string
		words   []uint32
		maxBits int
	}{
		{"zero-run", make([]uint32, 16), 2 * 6},                   // two 8-word runs
		{"small-ints", []uint32{1, 2, 3, 0xFFFFFFFF}, 4*7 + 12*6}, // 4-bit imms + zero runs
		{"repeated-bytes", []uint32{0x5A5A5A5A}, 11 + 2*6},
		{"halfword-hi", []uint32{0xABCD0000}, 19 + 2*6},
	}
	for _, c := range cases {
		line := AppendPutWords(nil, append(append([]uint32{}, c.words...), make([]uint32, 16-len(c.words))...))
		enc := CompressWith(e, nil, line, nil)
		if enc.NBits > c.maxBits {
			t.Errorf("%s: %d bits, want ≤ %d", c.name, enc.NBits, c.maxBits)
		}
		dec, err := DecompressWith(e, nil, enc, nil, 64)
		if err != nil || !bytes.Equal(dec, line) {
			t.Errorf("%s: round trip failed: %v", c.name, err)
		}
	}
}

func TestFPCSignExtension(t *testing.T) {
	e := NewFPC()
	// Negative values in each width class.
	words := []uint32{0xFFFFFFF8, 0xFFFFFF80, 0xFFFF8000, 0x00FF00FE}
	line := AppendPutWords(nil, append(words, make([]uint32, 12)...))
	enc := CompressWith(e, nil, line, nil)
	dec, err := DecompressWith(e, nil, enc, nil, 64)
	if err != nil || !bytes.Equal(dec, line) {
		t.Fatalf("sign-extension round trip failed: %v", err)
	}
}
