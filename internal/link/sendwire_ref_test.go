package link

import (
	"math/bits"
	"math/rand"
	"testing"
)

// refSendWire is the bit-at-a-time toggle loop SendWire replaced, kept
// as the reference of the differential test.
func refSendWire(l *Link, data []byte, nbits int) int {
	wire := l.Send(nbits)
	w := l.cfg.WidthBits
	toggleBits := nbits
	if m := len(data) * 8; m < toggleBits {
		toggleBits = m
	}
	for off := 0; off < toggleBits; off += w {
		n := w
		if off+n > toggleBits {
			n = toggleBits - off
		}
		var word uint64
		for b := 0; b < n; b++ {
			byteIdx := (off + b) / 8
			bit := (data[byteIdx] >> (7 - uint((off+b)%8))) & 1
			word = word<<1 | uint64(bit)
		}
		word <<= uint(w - n)
		mask := (^uint64(0) >> uint(64-n)) << uint(w-n)
		l.Toggles += uint64(bits.OnesCount64((word ^ l.prevWord) & mask))
		l.prevWord = l.prevWord&^mask | word
	}
	return wire
}

// TestSendWireMatchesReference sends the same payload sequence down a
// word-at-a-time link and a reference one — every width, every payload
// length from 0 to 600 bits, the wire image shorter than, equal to and
// longer than the payload, packed and unpacked — and compares the
// return value and the running counters after each payload, so the
// previous word and the undriven lanes of a partial word carry from one
// payload to the next.
func TestSendWireMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	image := make([]byte, 600/8+9)
	for width := 1; width <= 64; width++ {
		for _, packed := range []bool{false, true} {
			cfg := Config{WidthBits: width, FreqHz: 1, Packed: packed}
			got, want := New(cfg), New(cfg)
			for _, nbits := range rng.Perm(601) {
				nbytes := (nbits + 7) / 8
				switch rng.Intn(3) {
				case 0: // framing bits not materialized
					nbytes -= min(nbytes, 1+rng.Intn(8))
				case 1: // a reused buffer longer than the payload
					nbytes += 1 + rng.Intn(8)
				}
				data := image[:nbytes]
				rng.Read(data)
				if rng.Intn(4) == 0 {
					clear(data[:rng.Intn(nbytes+1)]) // quiet lanes
				}
				g, w := got.SendWire(data, nbits), refSendWire(want, data, nbits)
				if g != w || got.Toggles != want.Toggles || got.WireBits != want.WireBits || got.prevWord != want.prevWord {
					t.Fatalf("width %d packed %v, %d bits in %d bytes: wire %d toggles %d wirebits %d prev %#x, reference %d %d %d %#x",
						width, packed, nbits, nbytes, g, got.Toggles, got.WireBits, got.prevWord, w, want.Toggles, want.WireBits, want.prevWord)
				}
			}
		}
	}
}
