package codec

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzCodecFrameDecode throws arbitrary bytes at the decoder, as they
// come and with the CRC chain sealed again over them — else every
// mutation of a seed dies at the first frame check and the payload
// parsers behind it go unfuzzed. Seeds are real encoded streams
// (several geometries plus raw and tail frames), so the mutator spends
// its time past the header checks. The decoder must either finish or
// return a typed error; it must never panic and never allocate
// proportionally to a corrupted length field.
func FuzzCodecFrameDecode(f *testing.F) {
	seed := func(in []byte, o Options) {
		var wire bytes.Buffer
		e, err := NewEncoder(&wire, o)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := e.Write(in); err != nil {
			f.Fatal(err)
		}
		if err := e.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
	}
	// Seeds are kept small (a few hundred wire bytes): the fuzz
	// minimizer re-executes the target once per candidate byte removal,
	// so kilobyte seeds turn every new-coverage hit into tens of
	// seconds of minimization on one core.
	structured := testPayload(256, 42)
	seed(structured, Options{DictBytes: 16 << 10})
	seed(structured, Options{DictBytes: 16 << 10, LineSize: 32, Batch: 3, Engine: "bdi"})
	seed(append(structured, 0xAB, 0xCD), Options{DictBytes: 16 << 10}) // tail frame
	noise := make([]byte, 256)
	for i := range noise {
		noise[i] = byte(i*197 + i>>3) // incompressible-ish: raw frames
	}
	seed(noise, Options{DictBytes: 16 << 10, Batch: 4})
	f.Add([]byte("CBLC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, wire []byte) {
		sealed := append([]byte(nil), wire...)
		reseal(sealed)
		buf := make([]byte, 4096)
		for _, w := range [][]byte{wire, sealed} {
			d := NewDecoder(bytes.NewReader(w))
			for {
				_, err := d.Read(buf)
				if err == nil {
					continue
				}
				if err == io.EOF {
					break
				}
				if !typedDecodeError(err) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped decode error: %v", err)
				}
				// The error must be sticky: further reads repeat it.
				if _, again := d.Read(buf); again == nil {
					t.Fatal("decoder kept reading after a decode error")
				}
				break
			}
		}
	})
}

// FuzzCodecRoundTrip checks the full property on arbitrary plaintext:
// whatever bytes go in must come back out unchanged.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte("hello, cable"), uint8(1))
	f.Add(testPayload(600, 43), uint8(7))
	f.Add(make([]byte, 300), uint8(64))
	f.Fuzz(func(t *testing.T, in []byte, batch uint8) {
		var wire bytes.Buffer
		e, err := NewEncoder(&wire, Options{DictBytes: 32 << 10, Batch: int(batch)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Write(in); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(bytes.NewReader(wire.Bytes()))
		got, err := io.ReadAll(d)
		if err != nil {
			t.Fatalf("decode of freshly encoded stream: %v", err)
		}
		if !bytes.Equal(got, in) {
			t.Fatalf("round trip mismatch: %d bytes in, %d out", len(in), len(got))
		}
		// Corrupted streams must fail typed, not panic (single probe per
		// input; the exhaustive sweep lives in TestCorruptionExhaustive).
		if wire.Len() > 0 {
			mut := wire.Bytes()
			mut[len(mut)/2] ^= 0x10
			d := NewDecoder(bytes.NewReader(mut))
			for {
				if _, err := d.Read(make([]byte, 512)); err != nil {
					if err != io.EOF && !typedDecodeError(err) && !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("untyped decode error: %v", err)
					}
					break
				}
			}
		}
	})
}
