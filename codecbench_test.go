package cable_test

// BenchmarkCodecStream races the CABLE streaming codec against
// compress/gzip and the in-repo streaming LZSS (the paper's hardware
// gzip stand-in, §VI) on two payload classes:
//
//   - trace: the concatenated line contents touched by a SPEC-model
//     workload generator — the cache-line traffic CABLE is built for.
//   - mix:   the line contents of the bursty multi-client mix spec in
//     examples/workloads, whose interleaved clients pollute any
//     single-dictionary compressor.
//
// Each sub-benchmark reports MB/s (plaintext throughput) and the
// end-to-end compression ratio (plaintext bytes per encoded byte, >1 is
// compression).

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	cable "cable"
	"cable/internal/compress"
	"cable/internal/workload"
	"cable/internal/workload/spec"
)

// tracePayload concatenates the line data of a workload generator's
// access stream: the byte stream a link-attached codec would see when
// streaming one chip's fill traffic.
func tracePayload(b *testing.B, bench string, lines int) []byte {
	b.Helper()
	g, err := workload.New(bench, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, 0, lines*64)
	for i := 0; i < lines; i++ {
		out = append(out, g.LineData(g.Next().LineAddr)...)
	}
	return out
}

// mixPayload concatenates the line data of the bursty multi-client mix:
// several clients' streams interleaved on one link.
func mixPayload(b *testing.B, lines int) []byte {
	b.Helper()
	w, err := spec.Load("examples/workloads/bursty-mix.json")
	if err != nil {
		b.Fatal(err)
	}
	m, err := spec.NewMix(w, spec.MixOptions{Budget: uint64(lines)})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, 0, lines*64)
	for i := 0; i < lines; i++ {
		em, err := m.Next()
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, m.LineData(em.Access.LineAddr)...)
	}
	return out
}

// codecStreamPayloads builds the benchmark corpus once per process.
func codecStreamPayloads(b *testing.B) map[string][]byte {
	b.Helper()
	const lines = 8 << 10 // 512 KB per class
	return map[string][]byte{
		"trace": tracePayload(b, "mcf", lines),
		"mix":   mixPayload(b, lines),
	}
}

func BenchmarkCodecStream(b *testing.B) {
	for _, class := range []string{"trace", "mix"} {
		payload := codecStreamPayloads(b)[class]

		b.Run(class+"/cable", func(b *testing.B) {
			e, err := cable.NewStreamEncoder(io.Discard, cable.StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			// Warm run pins the ratio column and grows the scratch.
			if _, err := e.Write(payload); err != nil {
				b.Fatal(err)
			}
			ratio := e.Stats.Ratio()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset(io.Discard)
				if _, err := e.Write(payload); err != nil {
					b.Fatal(err)
				}
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "ratio")
		})

		b.Run(class+"/cable-decode", func(b *testing.B) {
			var wire bytes.Buffer
			e, err := cable.NewStreamEncoder(&wire, cable.StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Write(payload); err != nil {
				b.Fatal(err)
			}
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
			d := cable.NewStreamDecoder(bytes.NewReader(wire.Bytes()))
			sink := make([]byte, 64<<10)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset(bytes.NewReader(wire.Bytes()))
				for {
					if _, err := d.Read(sink); err != nil {
						if err == io.EOF {
							break
						}
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(payload))/float64(wire.Len()), "ratio")
		})

		b.Run(class+"/gzip", func(b *testing.B) {
			var n countingDiscard
			w := gzip.NewWriter(&n)
			if _, err := w.Write(payload); err != nil {
				b.Fatal(err)
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			ratio := float64(len(payload)) / float64(n)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var m countingDiscard
				w.Reset(&m)
				if _, err := w.Write(payload); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "ratio")
		})

		b.Run(class+"/lzss", func(b *testing.B) {
			// The paper's gzip stand-in: streaming LZSS with the 32 KB
			// max dictionary of IBM's ASIC, fed line by line.
			z := compress.NewLZSS("lzss", 32<<10)
			var bits int
			for off := 0; off+64 <= len(payload); off += 64 {
				bits += z.Compress(payload[off : off+64]).NBits
			}
			ratio := float64(len(payload)*8) / float64(bits)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z.Reset()
				for off := 0; off+64 <= len(payload); off += 64 {
					z.Compress(payload[off : off+64])
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// countingDiscard is io.Discard with a length.
type countingDiscard int

func (c *countingDiscard) Write(p []byte) (int, error) {
	*c += countingDiscard(len(p))
	return len(p), nil
}
