package sim

import (
	"testing"

	"cable/internal/link"
)

// meterCorpus builds a stream of 64B lines with enough cross-line
// repetition that a streaming compressor's window keeps paying off.
func meterCorpus() [][]byte {
	corpus := make([][]byte, 256)
	for i := range corpus {
		line := make([]byte, 64)
		for j := range line {
			// A few recurring byte patterns, phase-shifted per line.
			line[j] = byte((j*7 + (i%8)*13) & 0xFF)
		}
		corpus[i] = line
	}
	return corpus
}

// TestMeterResetCountersKeepsCompressorState proves ResetCounters zeroes
// the bookkeeping (ratios, link accounting, last-wire) while the gzip
// meter's LZSS window survives: replaying the same corpus after a reset
// compresses strictly better than the cold first pass, which is only
// possible if the dictionary learned during that first pass is intact.
func TestMeterResetCountersKeepsCompressorState(t *testing.T) {
	m := NewStreamMeterIn("gzip", 32<<10, link.DefaultConfig(), nil)
	corpus := meterCorpus()
	for _, line := range corpus {
		m.OnFill(line, 0)
	}
	cold := m.Total().Value()
	if cold <= 1 {
		t.Fatalf("corpus should compress cold, ratio = %.3f", cold)
	}

	m.ResetCounters()
	if tot := m.Total(); tot.SourceBits != 0 || tot.WireBits != 0 {
		t.Fatalf("reset left totals: %+v", tot)
	}
	if r := m.Ratio(0); r.SourceBits != 0 {
		t.Fatalf("reset left per-owner ratio: %+v", r)
	}
	if l := m.Link(); l.Payloads != 0 || l.WireBits != 0 || l.Toggles != 0 {
		t.Fatalf("reset left link accounting: %+v", l)
	}
	if m.LastWire() != 0 {
		t.Fatalf("reset left last wire %d", m.LastWire())
	}

	for _, line := range corpus {
		m.OnFill(line, 0)
	}
	warm := m.Total().Value()
	if warm <= cold {
		t.Fatalf("warm replay ratio %.3f not better than cold %.3f — compressor window was lost by ResetCounters", warm, cold)
	}
}
