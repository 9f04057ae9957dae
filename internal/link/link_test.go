package link

import (
	"math"
	"testing"
)

func TestFlitsQuantization(t *testing.T) {
	l := New(Config{WidthBits: 16, FreqHz: 9.6e9})
	cases := []struct{ bits, flits int }{
		{0, 0}, {1, 1}, {16, 1}, {17, 2}, {512, 32}, {513, 33},
	}
	for _, c := range cases {
		if got := l.Flits(c.bits); got != c.flits {
			t.Errorf("Flits(%d) = %d, want %d", c.bits, got, c.flits)
		}
	}
}

func TestMaxCompressionCap(t *testing.T) {
	// §III-E: the 16-bit bus caps effective compression at 32×.
	l := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		l.Send(1) // maximally compressed payloads
	}
	ratio := float64(100*64*8) / float64(l.WireBits)
	if math.Abs(ratio-32) > 1e-9 {
		t.Fatalf("max effective ratio %.2f, want 32", ratio)
	}
}

func TestPackedTransportSavesPadding(t *testing.T) {
	plain := New(Config{WidthBits: 64, FreqHz: 1})
	packed := New(Config{WidthBits: 64, FreqHz: 1, Packed: true})
	// 20-bit payloads: plain wastes 44 bits each; packed only adds a
	// 6-bit length.
	for i := 0; i < 1000; i++ {
		plain.Send(20)
		packed.Send(20)
	}
	if plain.WireBits != 64000 {
		t.Fatalf("plain wire bits = %d", plain.WireBits)
	}
	if packed.WireBits != 26000 {
		t.Fatalf("packed wire bits = %d, want 26000", packed.WireBits)
	}
}

func TestPackedResidualAccounting(t *testing.T) {
	l := New(Config{WidthBits: 16, FreqHz: 1, Packed: true})
	l.Send(5) // 11 bits used, residual 5
	if l.residualBits != 5 {
		t.Fatalf("residual = %d, want 5", l.residualBits)
	}
	l.Send(10) // 16 bits: 5 residual + 11 of a new flit → residual 5
	if l.residualBits != 5 {
		t.Fatalf("residual = %d, want 5", l.residualBits)
	}
	if l.WireBits != 5+6+10+6 {
		t.Fatalf("wire bits = %d", l.WireBits)
	}
}

func TestToggleCounting(t *testing.T) {
	l := New(Config{WidthBits: 8, FreqHz: 1})
	// Words: 0xFF, 0x00, 0xFF → 8 + 8 toggles after the first word
	// (prev starts at 0 → first word adds 8).
	l.SendWire([]byte{0xFF, 0x00, 0xFF}, 24)
	if l.Toggles != 24 {
		t.Fatalf("toggles = %d, want 24", l.Toggles)
	}
	// Constant data: no further toggles.
	l2 := New(Config{WidthBits: 8, FreqHz: 1})
	l2.SendWire([]byte{0x55, 0x55, 0x55}, 24)
	if l2.Toggles != 4 { // 0x00→0x55 then two zero-toggle words
		t.Fatalf("constant toggles = %d, want 4", l2.Toggles)
	}
}

func TestToggleCountsPartialTailWord(t *testing.T) {
	l := New(Config{WidthBits: 16, FreqHz: 1})
	l.SendWire([]byte{0xFF, 0xFF, 0xFF}, 20) // 16-bit word + 4-bit tail
	if l.Toggles == 0 {
		t.Fatal("tail bits should still toggle")
	}
}

func TestBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.BytesPerSec(); math.Abs(got-19.2e9) > 1 {
		t.Fatalf("bandwidth = %g, want 19.2 GB/s (Table IV)", got)
	}
}

func TestChannelSerialization(t *testing.T) {
	// 16 bits at 1 GHz × 16-bit width = 1e9 bits... transfer of 160
	// bits takes 10 ns.
	c := NewChannel(Config{WidthBits: 16, FreqHz: 1e9})
	done1 := c.Transfer(0, 160)
	if math.Abs(done1-10e-9) > 1e-15 {
		t.Fatalf("done1 = %g, want 10ns", done1)
	}
	// Second transfer issued at t=0 must queue behind the first.
	done2 := c.Transfer(0, 160)
	if math.Abs(done2-20e-9) > 1e-15 {
		t.Fatalf("done2 = %g, want 20ns", done2)
	}
	// A transfer issued after the channel drains starts immediately.
	done3 := c.Transfer(100e-9, 160)
	if math.Abs(done3-110e-9) > 1e-15 {
		t.Fatalf("done3 = %g, want 110ns", done3)
	}
}

func TestChannelUtilization(t *testing.T) {
	c := NewChannel(Config{WidthBits: 16, FreqHz: 1e9})
	c.Transfer(0, 16000) // 1 µs of occupancy
	if u := c.Utilization(2e-6); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	c.ResetWindow()
	if u := c.Utilization(1e-6); u != 0 {
		t.Fatalf("utilization after reset = %v", u)
	}
	if u := c.Utilization(0); u != 0 {
		t.Fatal("zero elapsed must not divide by zero")
	}
}

func TestNewPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	New(Config{WidthBits: 0, FreqHz: 1})
}

// Regression: the packed transport's 6-bit length prefix can only
// represent 0–63 bytes, but a raw 64 B line plus header already
// exceeds that. The escape/continuation encoding (63 = "63 bytes plus
// next chunk") must kick in exactly at the 63-byte boundary; the
// pre-fix fixed-width prefix silently under-modeled large frames.
func TestPackedLengthEscapeBoundary(t *testing.T) {
	cases := []struct{ nbytes, prefix int }{
		{0, 6}, {1, 6}, {62, 6},
		{63, 12}, {64, 12}, {125, 12},
		{126, 18}, {127, 18},
	}
	for _, c := range cases {
		if got := packedPrefixBits(c.nbytes); got != c.prefix {
			t.Errorf("packedPrefixBits(%d) = %d, want %d", c.nbytes, got, c.prefix)
		}
	}

	// End-to-end through Send: the wire charge is payload + prefix.
	for _, c := range []struct{ nbytes, wire int }{
		{62, 62*8 + 6},
		{63, 63*8 + 12},
		{64, 64*8 + 12},
	} {
		l := New(Config{WidthBits: 16, FreqHz: 1, Packed: true})
		if got := l.Send(c.nbytes * 8); got != c.wire {
			t.Errorf("packed Send(%d bytes) charged %d wire bits, want %d", c.nbytes, got, c.wire)
		}
	}
}

// Regression: a payload whose final word drives only part of the bus
// must count transitions on the driven lanes only; undriven lanes keep
// their previous state. The pre-fix code compared right-aligned words
// against the full previous word, so undriven lanes toggled spuriously.
func TestToggleCountsPartialFinalWordMasked(t *testing.T) {
	l := New(Config{WidthBits: 16, FreqHz: 1})

	// All 16 lanes rise from idle zero.
	l.SendWire([]byte{0xFF, 0xFF}, 16)
	if l.Toggles != 16 {
		t.Fatalf("full word of ones: %d toggles, want 16", l.Toggles)
	}
	// An 8-bit payload drives lanes 15..8, which already carry ones:
	// no transitions anywhere.
	l.SendWire([]byte{0xFF}, 8)
	if l.Toggles != 16 {
		t.Fatalf("partial word repeating lane state: %d toggles, want 16", l.Toggles)
	}
	// Full word of ones again: the undriven lanes 7..0 kept their
	// ones, so still no transitions. The pre-fix code zeroed them into
	// the lane state and over-counted 8 here.
	l.SendWire([]byte{0xFF, 0xFF}, 16)
	if l.Toggles != 16 {
		t.Fatalf("undriven lanes lost state: %d toggles, want 16", l.Toggles)
	}
	// A non-byte-aligned 5-bit tail 0b10110 drives lanes 15..11 with
	// 1,0,1,1,0: exactly lanes 14 and 11 fall. 2 new toggles.
	l.SendWire([]byte{0xB0}, 5)
	if l.Toggles != 18 {
		t.Fatalf("5-bit tail: %d toggles, want 18", l.Toggles)
	}
	// A 24-bit payload of ones: word 1 re-raises lanes 14 and 11
	// (2 toggles); the 8-bit tail word repeats ones on 15..8 (0).
	l.SendWire([]byte{0xFF, 0xFF, 0xFF}, 24)
	if l.Toggles != 20 {
		t.Fatalf("multi-word with partial tail: %d toggles, want 20", l.Toggles)
	}
}
