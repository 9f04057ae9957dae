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

// fuzzLink builds one small warm link whose two decoders the fault
// fuzzer drives: 32 Shared fills went home → remote through the ends,
// so fuzzed references can resolve on either side (remote slots, WMT
// entries). Built once per fuzz worker process; the fuzz engine runs
// the body sequentially, matching the ends' single-simulation
// concurrency contract.
var fuzzLink = sync.OnceValues(func() (*HomeEnd, *RemoteEnd) {
	home := cache.New(cache.Config{Name: "fuzzl4", SizeBytes: 64 << 10, Ways: 8, LineSize: 64})
	llc := cache.New(cache.Config{Name: "fuzzllc", SizeBytes: 16 << 10, Ways: 4, LineSize: 64})
	he, err := NewHomeEnd(DefaultConfig(), home, llc)
	if err != nil {
		panic(err)
	}
	re, err := NewRemoteEnd(DefaultConfig(), llc)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 32; i++ {
		line := make([]byte, 64)
		for j := range line {
			line[j] = byte(i * j)
		}
		addr := uint64(i)
		home.InsertAt(addr, line, cache.Shared, home.VictimWay(home.IndexOf(addr)))
		id := cache.LineID{Index: llc.IndexOf(addr), Way: llc.VictimWay(llc.IndexOf(addr))}
		p, _, err := he.EncodeFill(addr, cache.Shared, id.Way)
		if err != nil {
			panic(err)
		}
		data, err := re.DecodeFill(p)
		if err != nil {
			panic(err)
		}
		llc.InsertAt(addr, data, cache.Shared, id.Way)
		re.OnFillInstalled(id, data, cache.Shared)
	}
	return he, re
})

// fuzzSeedImages marshals real payloads — a raw line, a fill and a
// write-back encoding — as the guarded-image seed corpus.
func fuzzSeedImages() []compress.Encoded {
	he, re := fuzzLink()
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i*7 + 3)
	}
	seeds := []compress.Encoded{
		Payload{Raw: line}.MarshalGuarded(9, 3),
	}
	fill, _, err := he.EncodeFill(3, cache.Shared, 0)
	if err != nil {
		panic(err)
	}
	seeds = append(seeds, fill.MarshalGuarded(9, 3))
	// A near-copy of Shared line 3: a write-back with references.
	for j := range line {
		line[j] = byte(3 * j)
	}
	line[5] ^= 1
	wb := re.EncodeWriteback(line)
	return append(seeds, wb.MarshalGuarded(9, 3))
}

// FuzzPayloadDecodeFaults models the link transfer's receive path
// under arbitrary wire corruption, in both directions: a guarded image
// is bit-flipped and/or truncated, then unguarded and — if the guard
// passes — decoded from the bits by a live remote end's fill decoder
// and a live home end's write-back decoder. The contract under fuzz:
// never panic, and every failure is classified under the decode-error
// taxonomy so drivers can degrade gracefully.
func FuzzPayloadDecodeFaults(f *testing.F) {
	for _, s := range fuzzSeedImages() {
		f.Add(s.Data, s.NBits, uint16(0), uint16(s.NBits))
	}
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
		body, err := Unguard(compress.Encoded{Data: img, NBits: nbits})
		if err != nil {
			if !errors.Is(err, ErrCRCMismatch) && !errors.Is(err, ErrTruncatedPayload) {
				t.Fatalf("unguard error outside the taxonomy: %v", err)
			}
			return
		}
		he, re := fuzzLink()
		decoders := []func(*bits.Reader) ([]byte, error){
			func(br *bits.Reader) ([]byte, error) { return re.DecodeFillFrom(br, 0) },
			he.DecodeWritebackFrom,
		}
		for i, decode := range decoders {
			if _, err := decode(body.Reader()); err != nil {
				if !errors.Is(err, ErrTruncatedPayload) && !errors.Is(err, ErrBadReference) && !errors.Is(err, ErrCorruptDiff) {
					t.Fatalf("decoder %d: error outside the taxonomy: %v", i, err)
				}
			}
		}
	})
}
