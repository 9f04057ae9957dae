package compress

import (
	"bytes"
	"testing"
)

// Decoders face bits that crossed a physical link: they must reject
// corruption with an error, never panic or loop. The fuzz targets feed
// arbitrary bit streams to every decoder, and valid streams round-trip.

func fuzzRefs(seed []byte) [][]byte {
	if len(seed) == 0 {
		return nil
	}
	refs := make([][]byte, int(seed[0])%3+1)
	for i := range refs {
		r := make([]byte, 64)
		for j := range r {
			r[j] = byte(int(seed[0]) + i*31 + j)
		}
		refs[i] = r
	}
	return refs
}

func FuzzDecoderRobustness(f *testing.F) {
	f.Add([]byte{0x00}, 10, 0)
	f.Add([]byte{0xFF, 0x12, 0x34}, 24, 1)
	f.Add(bytes.Repeat([]byte{0xA5}, 64), 512, 2)
	engineList := engines()
	f.Fuzz(func(t *testing.T, data []byte, nbits int, which int) {
		if nbits < 0 || nbits > len(data)*8 {
			return
		}
		enc := Encoded{Data: data, NBits: nbits}
		refs := fuzzRefs(data)
		n := len(engineList)
		e := engineList[((which%n)+n)%n]
		// Must not panic; errors are fine.
		out, err := DecompressWith(e, nil, enc, refs, 64)
		if err == nil && len(out) != 64 {
			t.Fatalf("%s: nil error but %d bytes", e.Name(), len(out))
		}
	})
}

func FuzzEngineRoundTrip(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0}, 64), 0)
	f.Add(bytes.Repeat([]byte{0xAB}, 64), 1)
	engineList := engines()
	f.Fuzz(func(t *testing.T, line []byte, which int) {
		if len(line) != 64 {
			return
		}
		refs := fuzzRefs(line)
		n := len(engineList)
		e := engineList[((which%n)+n)%n]
		enc := CompressWith(e, nil, line, refs)
		got, err := DecompressWith(e, nil, enc, refs, 64)
		if err != nil {
			t.Fatalf("%s: valid stream rejected: %v", e.Name(), err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("%s: round trip mismatch", e.Name())
		}
		requireSelfDelimiting(t, e, line, refs, uint64(which)*0x9E3779B97F4A7C15)
	})
}

func FuzzLZSSStream(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{4, 5, 6})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		c := NewLZSS("gzip", 4096)
		d := NewLZSSDecoder(4096)
		for _, chunk := range [][]byte{a, b} {
			line := make([]byte, 64)
			copy(line, chunk)
			enc := c.Compress(line)
			got, err := d.DecompressFrom(enc.Reader(), 64)
			if err != nil {
				t.Fatalf("stream decode: %v", err)
			}
			if !bytes.Equal(got, line) {
				t.Fatal("stream desync")
			}
		}
	})
}
