package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenRand is a fixed xorshift64* stream: the golden payloads must not
// depend on any library's generator.
type goldenRand uint64

func (r *goldenRand) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = goldenRand(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *goldenRand) intn(n int) int { return int(r.next() >> 33 % uint64(n)) }

// goldenSimilar is a stream of 64-byte records drawn from eight slowly
// drifting templates: most lines find several references that each
// cover a different part, so ranking, the reference picker and run
// copies all decide bytes of the wire.
func goldenSimilar(n int) []byte {
	rng := goldenRand(0x9E3779B97F4A7C15)
	var tmpl [8][16]uint32
	for i := range tmpl {
		for j := range tmpl[i] {
			tmpl[i][j] = uint32(rng.next())
		}
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		t := &tmpl[rng.intn(len(tmpl))]
		// Drift: rewrite a word, nudge a low byte, nudge a low half.
		t[rng.intn(16)] = uint32(rng.next())
		t[rng.intn(16)] ^= uint32(rng.intn(256))
		t[rng.intn(16)] ^= uint32(rng.intn(1 << 16))
		if rng.intn(4) == 0 {
			// Splice half of another template in: no single reference
			// covers the line.
			o := tmpl[rng.intn(len(tmpl))]
			copy(t[8:], o[8:])
		}
		for _, w := range t {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
	}
	return out[:n]
}

// goldenZeroHeavy interleaves two clients' records word-sparse: zero
// runs of every length at every alignment, sparse non-zero words that
// repeat across lines, small integers and whole zero lines, so the zero
// code, runs that start inside zeros and the partial-match codes all
// decide bytes of the wire.
func goldenZeroHeavy(n int) []byte {
	rng := goldenRand(0xD1B54A32D192ED03)
	var pool [2][12]uint32
	for c := range pool {
		for j := range pool[c] {
			pool[c][j] = uint32(rng.next())
		}
	}
	out := make([]byte, 0, n)
	for line := 0; len(out) < n; line++ {
		c := line & 1
		if line%7 == 3 {
			c ^= 1 // a burst breaks the strict alternation
		}
		var words [16]uint32
		switch rng.intn(8) {
		case 0: // all zero
		case 1: // small integers
			for j := range words {
				words[j] = uint32(rng.intn(4))
			}
		default:
			for j := 0; j < 16; {
				j += rng.intn(6) // a zero run of 0..5 words
				for k := rng.intn(3) + 1; k > 0 && j < 16; k-- {
					w := pool[c][(j+rng.intn(2))%len(pool[c])]
					switch rng.intn(6) {
					case 0:
						w ^= uint32(rng.intn(256))
					case 1:
						w ^= uint32(rng.intn(1 << 16))
					}
					words[j] = w
					j++
				}
			}
		}
		if rng.intn(16) == 0 {
			pool[c][rng.intn(len(pool[c]))] = uint32(rng.next())
		}
		for _, w := range words {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
	}
	return out[:n]
}

// TestWireGolden pins the encoded stream byte for byte: a change that
// is meant to be an optimisation of the encode path must leave every
// hash alone, which an equal compression ratio does not prove. The
// hashes were computed on the tree before the encode kernels of PR 24
// were touched. LineSize 256 gives CoverageVector 64 words (it keeps
// the low 32) and LBE a dictionary one reference fills.
func TestWireGolden(t *testing.T) {
	payloads := []struct {
		name string
		data []byte
	}{
		{"similar", goldenSimilar(192<<10 + 37)},
		{"zeroheavy", goldenZeroHeavy(192<<10 + 37)},
	}
	want := map[string]string{
		"similar/64":    "0b4a3a9989327d42fc50d02d48b0dc566b64ad2d804a47ef9454601565b362ff",
		"similar/256":   "58dfac8d82d20081da82796d117ebd17e89ae23f048e24e2dfc2d0d91ff4443e",
		"zeroheavy/64":  "89cd592949f0972ae0a34c942f8c45be7ac25819623a199c0df80678645c459a",
		"zeroheavy/256": "af855759316dcf5c47c54e69c4c7b0de5c16aae09a8b2a6f061cbd00c111a02e",
	}
	for _, p := range payloads {
		for _, ls := range []int{64, 256} {
			name := fmt.Sprintf("%s/%d", p.name, ls)
			t.Run(name, func(t *testing.T) {
				wire := encodeAll(t, p.data, Options{LineSize: ls}, 4096)
				sum := sha256.Sum256(wire)
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("wire of %d bytes hashes to %s, want %s", len(wire), got, want[name])
				}
				if got := decodeAll(t, wire, 4096); !bytes.Equal(got, p.data) {
					t.Fatal("round trip mismatch")
				}
			})
		}
	}
}
