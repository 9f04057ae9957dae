package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cable/internal/bits"
)

// refLZSS is the map-chain LZSS the array-indexed LZSS replaced, kept
// verbatim as the slow reference of the differential tests: every
// quirk of its chain order, walk cap and trim points is part of the
// emitted bits, so the production coder must match it line for line.
type refLZSS struct {
	name    string
	window  int
	history []byte
	// head is a chain hash over 3-byte prefixes to keep the match
	// search linear in practice.
	head map[uint32][]int
	base int // bytes trimmed off the front of history
}

func newRefLZSS(name string, window int) *refLZSS {
	if window < lzssMaxMatch {
		panic(fmt.Sprintf("compress: lzss window %d too small", window))
	}
	return &refLZSS{name: name, window: window, head: make(map[uint32][]int)}
}

// Reset empties the window so the compressor can start a fresh stream,
// keeping its buffers. A Reset compressor emits byte-identical output
// to a newly built one.
func (z *refLZSS) Reset() {
	z.history = z.history[:0]
	clear(z.head)
	z.base = 0
}

func (z *refLZSS) offBits() int { return indexBits(z.window) }

// appendHistory adds b to the window, indexing new 3-byte prefixes and
// trimming the window lazily.
func (z *refLZSS) appendHistory(b []byte) {
	start := len(z.history)
	z.history = append(z.history, b...)
	for i := start; i+lzssMinMatch <= len(z.history); i++ {
		if i < start-lzssMinMatch+1 {
			continue
		}
		k := lzssKey(z.history[i:])
		z.head[k] = append(z.head[k], z.base+i)
	}
	// Also index positions straddling the previous append.
	for i := start - lzssMinMatch + 1; i >= 0 && i < start; i++ {
		k := lzssKey(z.history[i:])
		z.head[k] = append(z.head[k], z.base+i)
	}
	z.trim()
}

func (z *refLZSS) trim() {
	if len(z.history) <= 2*z.window {
		return
	}
	cut := len(z.history) - z.window
	z.history = append([]byte(nil), z.history[cut:]...)
	z.base += cut
	// Rebuild the chains; amortized O(window).
	z.head = make(map[uint32][]int, len(z.head))
	for i := 0; i+lzssMinMatch <= len(z.history); i++ {
		k := lzssKey(z.history[i:])
		z.head[k] = append(z.head[k], z.base+i)
	}
}

// findMatch searches the window for the longest match of src, where cur
// is the absolute stream position of src[0].
func (z *refLZSS) findMatch(src []byte, cur int) (dist, length int) {
	if len(src) < lzssMinMatch {
		return 0, 0
	}
	chain := z.head[lzssKey(src)]
	best := 0
	bestDist := 0
	// Walk newest-first; cap the chain walk to bound worst case.
	for c, i := 0, len(chain)-1; i >= 0 && c < 64; i, c = i-1, c+1 {
		pos := chain[i]
		d := cur - pos
		if d <= 0 || d > z.window {
			continue
		}
		h := pos - z.base
		if h < 0 {
			continue
		}
		l := matchLen(z.history[h:], src, lzssMaxMatch)
		if l > best {
			best, bestDist = l, d
			if best == lzssMaxMatch {
				break
			}
		}
	}
	if best < lzssMinMatch {
		return 0, 0
	}
	return bestDist, best
}

// Compress encodes line against the window accumulated from all
// previous lines on this link, then appends line to the window. Matches
// never span into the line being encoded, so the decoder (whose window
// ends at the previous line) can always resolve them.
func (z *refLZSS) Compress(line []byte) Encoded {
	ob := z.offBits()
	var w bits.Writer
	for p := 0; p < len(line); {
		dist, l := z.findMatch(line[p:], z.base+len(z.history)+p)
		// Also consider intra-line matches, including overlapping
		// run matches (distance < length), which make zero/value
		// runs cheap: the decoder resolves them byte-by-byte.
		if id, il := refIntraLineMatch(line, p); il > l {
			dist, l = id, il
		}
		if l >= lzssMinMatch {
			w.WriteBit(1)
			w.WriteBits(uint64(dist-1), ob)
			w.WriteBits(uint64(l-lzssMinMatch), lzssLenBits)
			p += l
		} else {
			w.WriteBit(0)
			w.WriteBits(uint64(line[p]), 8)
			p++
		}
	}
	z.appendHistory(line)
	return Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// refIntraLineMatch finds the longest match for line[p:] whose source is an
// earlier position in the same line. A match of length l at distance d
// is valid iff line[p+i] == line[p+i-d] for all i < l — exactly the
// sequence a byte-at-a-time decoder reproduces, so d < l (overlap) is
// legal. Each position compares against the original line contents on
// both sides, so the word-packed matchLen over the two (overlapping)
// views computes the same predicate as the scalar loop.
func refIntraLineMatch(line []byte, p int) (dist, length int) {
	best, bestDist := 0, 0
	max := lzssMaxMatch
	if len(line)-p < max {
		max = len(line) - p
	}
	for d := 1; d <= p; d++ {
		l := matchLen(line[p-d:], line[p:], max)
		if l > best {
			best, bestDist = l, d
			if best == max {
				break
			}
		}
	}
	if best < lzssMinMatch {
		return 0, 0
	}
	return bestDist, best
}

// lzssTestLine draws one line of the parity streams: zero lines, byte
// and short-period runs, sparse small values, repeats and near-repeats
// of earlier lines, and noise — the content classes that give the chain
// index long same-prefix chains, ties and bucket collisions.
func lzssTestLine(rng *rand.Rand, earlier [][]byte) []byte {
	n := 64
	if rng.Intn(16) == 0 {
		n = 2 + rng.Intn(319) // short lines and ones past the 258-byte match cap
	}
	line := make([]byte, n)
	switch k := rng.Intn(8); {
	case k == 0: // zeros
	case k == 1: // run of one byte or a short period
		period := 1 + rng.Intn(4)
		for i := range line {
			line[i] = byte(0x40 + i%period)
		}
	case k == 2: // sparse small values
		for i := 0; i < n; i += 4 {
			if rng.Intn(3) == 0 {
				line[i] = byte(rng.Intn(8))
			}
		}
	case k <= 5 && len(earlier) > 0: // repeat, often slightly edited
		copy(line, earlier[rng.Intn(len(earlier))])
		for e := rng.Intn(4); e > 0; e-- {
			line[rng.Intn(n)] = byte(rng.Intn(256))
		}
	default:
		rng.Read(line)
		if rng.Intn(2) == 0 { // few distinct symbols: crowded chains
			for i := range line {
				line[i] &= 3
			}
		}
	}
	return line
}

// checkLZSSParity feeds n lines to both coders and a decoder.
func checkLZSSParity(t *testing.T, rng *rand.Rand, z *LZSS, ref *refLZSS, dec *LZSSDecoder, scr *Scratch, n int) {
	t.Helper()
	var earlier [][]byte
	for i := 0; i < n; i++ {
		line := lzssTestLine(rng, earlier)
		if len(earlier) < 64 {
			earlier = append(earlier, line)
		} else {
			earlier[rng.Intn(64)] = line
		}
		want := ref.Compress(line)
		got := z.CompressScratch(scr, line)
		if got.NBits != want.NBits || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("line %d (%d bytes): %d bits %x, reference %d bits %x", i, len(line), got.NBits, got.Data, want.NBits, want.Data)
		}
		back, err := dec.DecompressFrom(got.Reader(), len(line))
		if err != nil || !bytes.Equal(back, line) {
			t.Fatalf("line %d: round trip: %v", i, err)
		}
	}
}

// FuzzLZSSIndexParity is the differential check of the array-chained
// window index against the map-chain reference: the same random line
// stream through both, across three trims, a Reset and one more trim,
// must give the same bits line for line and decode back to the input.
func FuzzLZSSIndexParity(f *testing.F) {
	for w := 0; w < 3; w++ {
		f.Add(int64(w+1), uint8(w), false)
	}
	f.Add(int64(4), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, which uint8, nearRebase bool) {
		window := []int{lzssMaxMatch, 4096, 32 << 10}[which%3]
		rng := rand.New(rand.NewSource(seed))
		z, ref, dec := NewLZSS("gzip", window), newRefLZSS("gzip", window), NewLZSSDecoder(window)
		if nearRebase {
			z.base = lzssRebase - window // the position wrap happens mid-stream
		}
		var scr Scratch
		// Lines average a little over 64 bytes, so 4·window/64 of them
		// cross the trims at two, three and four windows.
		checkLZSSParity(t, rng, z, ref, dec, &scr, 4*window/64+8)
		z.Reset()
		ref.Reset()
		dec.Reset()
		checkLZSSParity(t, rng, z, ref, dec, &scr, 2*window/64+8)
	})
}

// TestLZSSResetFromTrimmedState proves Reset's promise from the worst
// state to reset from: after two trims, with everything Reset released
// scribbled over — the history buffer, the prev links, and the bucket
// heads set to arbitrary stale positions — the next 1000 lines must
// come out bit-identical to a newly built compressor's.
func TestLZSSResetFromTrimmedState(t *testing.T) {
	const window = 4096
	rng := rand.New(rand.NewSource(11))
	z := NewLZSS("gzip", window)
	var earlier [][]byte
	for i := 0; i < 3*window/64+8; i++ {
		earlier = append(earlier, lzssTestLine(rng, earlier))
		z.Compress(earlier[i])
	}
	if z.base < 2*window {
		t.Fatalf("base %d: the warm-up crossed fewer than two trims", z.base)
	}
	z.Reset()
	for i := range z.history[:cap(z.history)] {
		z.history[:cap(z.history)][i] = 0xAA
	}
	for i := range z.prev {
		z.prev[i] = int32(rng.Uint32())
	}
	for i := range z.head {
		z.head[i] = int32(rng.Intn(z.base + 1))
	}
	fresh := NewLZSS("gzip", window)
	for i := 0; i < 1000; i++ {
		line := lzssTestLine(rng, earlier)
		got, want := z.Compress(line), fresh.Compress(line)
		if got.NBits != want.NBits || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("line %d after Reset: %d bits %x, fresh instance %d bits %x", i, got.NBits, got.Data, want.NBits, want.Data)
		}
	}
}

// TestLZSSShortLines covers lines too short to hold a 3-byte prefix,
// where the map-chain coder indexed past the end of its history: they
// must encode, leave the window usable and decode back.
func TestLZSSShortLines(t *testing.T) {
	z, dec := NewLZSS("gzip", 4096), NewLZSSDecoder(4096)
	for i, line := range [][]byte{{7, 7, 7, 7}, {7}, {}, {7}, {7, 7}, {}, {7, 7, 7, 7, 7, 7}} {
		back, err := dec.DecompressFrom(z.Compress(line).Reader(), len(line))
		if err != nil || !bytes.Equal(back, line) {
			t.Fatalf("line %d %x: decoded %x, %v", i, line, back, err)
		}
	}
}

// TestLZSSRecycledMatchesFresh proves NewLZSS's reuse promise: a
// released compressor comes back from the pool, after one of another
// window was built and released in between, and must emit exactly what
// a fresh one does — the map-chain reference, which never touches the
// pool. Stream A crosses the position rebase before the release and
// stream B after it.
func TestLZSSRecycledMatchesFresh(t *testing.T) {
	const window = 4096
	rng := rand.New(rand.NewSource(21))
	var scr Scratch
	z := NewLZSS("gzip", window)
	z.base = lzssRebase - 2*window
	checkLZSSParity(t, rng, z, newRefLZSS("gzip", window), NewLZSSDecoder(window), &scr, 4*window/64+8)
	if z.base >= lzssRebase-2*window {
		t.Fatalf("base %d: stream A did not cross the rebase", z.base)
	}
	// Raising base only turns chain entries stale, as retire does: the
	// recycled compressor's Reset lands one window below the rebase.
	z.base = lzssRebase - window - len(z.history)
	z.Release()

	other := NewLZSS("gzip", 1024)
	checkLZSSParity(t, rng, other, newRefLZSS("gzip", 1024), NewLZSSDecoder(1024), &scr, 40)
	other.Release()

	z2 := NewLZSS("lzss", window)
	if z2 != z {
		// sync.Pool may drop a Put (always possible, and a quarter of
		// them under the race detector); B still has to match.
		t.Log("the pool did not hand the released compressor back")
	}
	if z2.Name() != "lzss" {
		t.Fatalf("recycled compressor is named %q", z2.Name())
	}
	checkLZSSParity(t, rng, z2, newRefLZSS("lzss", window), NewLZSSDecoder(window), &scr, 2*window/64+8)
	if z2 == z && z2.base >= lzssRebase-window {
		t.Fatalf("base %d: stream B did not cross the rebase", z2.base)
	}
}
