package core

import (
	"bytes"
	"errors"
	"testing"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
)

func guardTestPayloads() []Payload {
	return []Payload{
		{Raw: bytes.Repeat([]byte{0xA5}, 64)},
		{Compressed: true, Diff: compress.Encoded{Data: []byte{0b10110000}, NBits: 4}},
		{
			Compressed: true,
			Refs:       []cache.LineID{{Index: 511, Way: 7}, {Index: 0, Way: 0}, {Index: 257, Way: 3}},
			Diff:       compress.Encoded{Data: []byte{0xDE, 0xAD, 0xBE}, NBits: 23},
		},
	}
}

func TestGuardedMarshalRoundTrip(t *testing.T) {
	idxBits, wayBits := 9, 3
	got, ps := new(Payload), new(PayloadScratch)
	for i, p := range guardTestPayloads() {
		enc := p.MarshalGuarded(idxBits, wayBits)
		if enc.NBits != p.Bits(idxBits+wayBits)+crcBits {
			t.Fatalf("case %d: guarded image %d bits, want body %d + %d guard",
				i, enc.NBits, p.Bits(idxBits+wayBits), crcBits)
		}
		if err := UnmarshalPayloadGuardedScratch(got, ps, enc, idxBits, wayBits, 64); err != nil {
			t.Fatalf("case %d: clean guarded image rejected: %v", i, err)
		}
		if got.Compressed != p.Compressed || len(got.Refs) != len(p.Refs) ||
			got.Diff.NBits != p.Diff.NBits || !bytes.Equal(got.Raw, p.Raw) {
			t.Fatalf("case %d: round-trip mismatch\n got %+v\nwant %+v", i, got, p)
		}
	}
}

// CRC-8 detects every single-bit error, including flips inside the
// guard field itself: flipping any one bit of a guarded image must be
// rejected with ErrCRCMismatch.
func TestGuardDetectsEverySingleBitFlip(t *testing.T) {
	idxBits, wayBits := 9, 3
	q, ps := new(Payload), new(PayloadScratch)
	for i, p := range guardTestPayloads() {
		enc := p.MarshalGuarded(idxBits, wayBits)
		for pos := 0; pos < enc.NBits; pos++ {
			img := append([]byte(nil), enc.Data...)
			img[pos/8] ^= 0x80 >> uint(pos%8)
			err := UnmarshalPayloadGuardedScratch(q, ps, compress.Encoded{Data: img, NBits: enc.NBits}, idxBits, wayBits, 64)
			if !errors.Is(err, ErrCRCMismatch) {
				t.Fatalf("case %d: flip at bit %d not caught: %v", i, pos, err)
			}
		}
	}
}

// Truncating a guarded image to any shorter length must be rejected —
// the bit length is folded into the CRC, so even a truncation landing
// on another byte-aligned boundary cannot alias a valid image.
func TestGuardDetectsTruncation(t *testing.T) {
	idxBits, wayBits := 9, 3
	q, ps := new(Payload), new(PayloadScratch)
	for i, p := range guardTestPayloads() {
		enc := p.MarshalGuarded(idxBits, wayBits)
		for nb := 0; nb < enc.NBits; nb++ {
			err := UnmarshalPayloadGuardedScratch(q, ps, compress.Encoded{Data: enc.Data, NBits: nb}, idxBits, wayBits, 64)
			if err == nil {
				t.Fatalf("case %d: truncation to %d/%d bits accepted", i, nb, enc.NBits)
			}
			if !errors.Is(err, ErrCRCMismatch) && !errors.Is(err, ErrTruncatedPayload) {
				t.Fatalf("case %d: truncation to %d bits misclassified: %v", i, nb, err)
			}
		}
		// A declared length past the physical buffer is truncation too.
		err := UnmarshalPayloadGuardedScratch(q, ps, compress.Encoded{Data: enc.Data, NBits: 8*len(enc.Data) + 1}, idxBits, wayBits, 64)
		if !errors.Is(err, ErrTruncatedPayload) {
			t.Fatalf("case %d: overlong declared length misclassified: %v", i, err)
		}
	}
}

// The unguarded unmarshal must classify every truncation as a wrapped
// ErrTruncatedPayload (never a panic, never an unclassified error).
func TestUnmarshalTruncationTyped(t *testing.T) {
	idxBits, wayBits := 9, 3
	q, ps := new(Payload), new(PayloadScratch)
	var w bits.Writer
	for i, p := range guardTestPayloads() {
		enc := p.MarshalInto(&w, idxBits, wayBits)
		// Raw payloads shorter than a line and headers cut mid-field.
		for _, nb := range []int{0, 1, 2, 5, enc.NBits / 2} {
			if nb >= enc.NBits {
				continue
			}
			err := UnmarshalPayloadScratch(q, ps, compress.Encoded{Data: enc.Data, NBits: nb}, idxBits, wayBits, 64)
			if p.Compressed && nb >= flagBits+refCountBits+len(p.Refs)*(idxBits+wayBits) {
				// Compressed bodies treat any tail as DIFF bits; the
				// corruption surfaces later, at decompress time.
				continue
			}
			if err == nil {
				continue // some prefixes parse as a shorter valid payload
			}
			if !errors.Is(err, ErrTruncatedPayload) {
				t.Fatalf("case %d at %d bits: unclassified error %v", i, nb, err)
			}
		}
	}
}

func TestCRC8ImageProperties(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56, 0x78}
	// Masking: bits past nbits in the final byte must not affect the CRC.
	a := crc8Image(data, 29)
	dirty := append([]byte(nil), data...)
	dirty[3] |= 0x07 // bits 29..31
	if b := crc8Image(dirty, 29); a != b {
		t.Fatalf("CRC reads past nbits: %#x != %#x", a, b)
	}
	// Length folding: same bytes, different declared length, different CRC.
	if crc8Image(data, 32) == crc8Image(data, 24) {
		t.Fatal("CRC ignores the bit length; byte-aligned truncations alias")
	}
}
