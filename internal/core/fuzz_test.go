package core

import (
	"errors"
	"sync"
	"testing"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
)

// FuzzUnmarshalPayloadScratch feeds arbitrary wire bits to the payload
// parser, through one reused scratch as the link transfer does: it must
// either parse or error, never panic, and parsed payloads must
// re-marshal to an equivalent wire image.
func FuzzUnmarshalPayloadScratch(f *testing.F) {
	f.Add([]byte{0x00}, 8)
	f.Add([]byte{0xC0, 0x01, 0x02, 0x03}, 32)
	p, ps := new(Payload), new(PayloadScratch)
	var w bits.Writer
	f.Fuzz(func(t *testing.T, data []byte, nbits int) {
		if nbits < 0 || nbits > len(data)*8 {
			return
		}
		enc := compress.Encoded{Data: data, NBits: nbits}
		if err := UnmarshalPayloadScratch(p, ps, enc, 9, 3, 64); err != nil {
			return
		}
		re := p.MarshalInto(&w, 9, 3)
		if re.NBits != p.Bits(12) {
			t.Fatalf("re-marshal %d bits, Bits() %d", re.NBits, p.Bits(12))
		}
	})
}

// fuzzRemote builds one small remote end whose decode path the fault
// fuzzer drives. Built once per fuzz worker process; the fuzz engine
// runs the body sequentially, matching the end's single-simulation
// concurrency contract.
var fuzzRemote = sync.OnceValues(func() (*RemoteEnd, *cache.Cache) {
	llc := cache.New(cache.Config{Name: "fuzzllc", SizeBytes: 16 << 10, Ways: 4, LineSize: 64})
	re, err := NewRemoteEnd(DefaultConfig(), llc)
	if err != nil {
		panic(err)
	}
	// Populate a few shared lines so some fuzzed references resolve.
	for i := 0; i < 32; i++ {
		line := make([]byte, 64)
		for j := range line {
			line[j] = byte(i * j)
		}
		addr := uint64(i * 64)
		idx := llc.IndexOf(addr)
		way := llc.VictimWay(idx)
		llc.InsertAt(addr, line, cache.Shared, way)
	}
	return re, llc
})

// fuzzSeedImages marshals real payloads — a raw line and genuine
// write-back encodings — as the guarded-image seed corpus.
func fuzzSeedImages() []compress.Encoded {
	re, _ := fuzzRemote()
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i*7 + 3)
	}
	seeds := []compress.Encoded{
		Payload{Raw: line}.MarshalGuarded(9, 3),
	}
	p := re.EncodeWriteback(line).Clone()
	seeds = append(seeds, p.MarshalGuarded(9, 3))
	return seeds
}

// FuzzPayloadDecodeFaults models the full receive path under arbitrary
// wire corruption: a guarded image is bit-flipped and/or truncated,
// then unmarshaled and — if the guard passes — decoded against a live
// remote end. The contract under fuzz: never panic, and every failure
// is classified under the decode-error taxonomy so drivers can degrade
// gracefully.
func FuzzPayloadDecodeFaults(f *testing.F) {
	for _, s := range fuzzSeedImages() {
		f.Add(s.Data, s.NBits, uint16(0), uint16(s.NBits))
	}
	q, ps := new(Payload), new(PayloadScratch)
	f.Fuzz(func(t *testing.T, data []byte, nbits int, flipPos, trunc uint16) {
		if nbits < 0 || nbits > len(data)*8 {
			return
		}
		img := append([]byte(nil), data...)
		if nbits > 0 {
			pos := int(flipPos) % nbits
			img[pos/8] ^= 0x80 >> uint(pos%8)
			nbits = int(trunc) % (nbits + 1)
		}
		if err := UnmarshalPayloadGuardedScratch(q, ps, compress.Encoded{Data: img, NBits: nbits}, 9, 3, 64); err != nil {
			if !errors.Is(err, ErrCRCMismatch) && !errors.Is(err, ErrTruncatedPayload) {
				t.Fatalf("unmarshal error outside the taxonomy: %v", err)
			}
			return
		}
		re, _ := fuzzRemote()
		if _, err := re.DecodeFill(*q); err != nil {
			if !errors.Is(err, ErrTruncatedPayload) && !errors.Is(err, ErrBadReference) && !errors.Is(err, ErrCorruptDiff) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
		}
	})
}
