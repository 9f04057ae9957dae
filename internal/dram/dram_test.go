package dram

import (
	"math"
	"testing"
)

func TestDefaultConfigMatchesTableIV(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.BytesPerSec(); math.Abs(got-12.8e9) > 1 {
		t.Fatalf("bandwidth = %g, want 12.8 GB/s", got)
	}
	if math.Abs(cfg.TRCDNs-11.25) > 1e-9 {
		t.Fatalf("tRCD = %v ns, want 11.25 (9 cycles @ 800MHz)", cfg.TRCDNs)
	}
}

func TestIdleLatency(t *testing.T) {
	c := NewChannel(DefaultConfig())
	// tRCD + tCAS + 64B burst = 22.5ns + 5ns = 27.5ns
	want := 27.5e-9
	done := c.Access(0, 0, 64)
	if math.Abs(done-want) > 1e-12 {
		t.Fatalf("first access done = %g, want %g", done, want)
	}
}

func TestBankConflictSerializes(t *testing.T) {
	c := NewChannel(DefaultConfig())
	d1 := c.Access(0, 0, 64) // bank 0
	d2 := c.Access(0, 8, 64) // bank 0 again (8 % 8 == 0)
	// Second access must wait for precharge after the first.
	if d2 <= d1+c.Config().TRPNs*1e-9 {
		t.Fatalf("bank conflict not serialized: d1=%g d2=%g", d1, d2)
	}
}

func TestBankParallelismOverlapsActivates(t *testing.T) {
	c := NewChannel(DefaultConfig())
	d1 := c.Access(0, 0, 64) // bank 0
	d2 := c.Access(0, 1, 64) // bank 1: activate overlaps, bus serializes
	serial := 2 * d1         // d1 found the channel idle
	if d2 >= serial {
		t.Fatalf("different banks should overlap: d2=%g, serial=%g, d1=%g", d2, serial, d1)
	}
	if d2 <= d1 {
		t.Fatal("bus must still serialize the bursts")
	}
}

func TestBusUtilization(t *testing.T) {
	c := NewChannel(DefaultConfig())
	for i := 0; i < 100; i++ {
		c.Access(0, uint64(i), 64)
	}
	if c.Accesses != 100 {
		t.Fatalf("accesses = %d", c.Accesses)
	}
	// 100 64B bursts = 500ns of bus time.
	if math.Abs(c.BusyBus-500e-9) > 1e-12 {
		t.Fatalf("bus busy = %g, want 500ns", c.BusyBus)
	}
}

func TestSaturatedChannelApproachesPeakBandwidth(t *testing.T) {
	c := NewChannel(DefaultConfig())
	n := 10000
	var done float64
	for i := 0; i < n; i++ {
		done = c.Access(0, uint64(i), 64)
	}
	gbs := float64(n*64) / done / 1e9
	if gbs < 11 || gbs > 12.9 {
		t.Fatalf("saturated throughput %.2f GB/s, want ≈12.8", gbs)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChannel(Config{})
}
