package sim

import (
	"testing"

	"cable/internal/fault"
)

// soakFault is the ISSUE's soak point: a 1e-3 per-bit flip rate plus
// occasional truncations, Verify off, proving the decode paths degrade
// to counted errors and raw fallbacks instead of panicking.
var soakFault = fault.Config{BitRate: 1e-3, TruncRate: 1e-3, Seed: 0xC0FFEE}

// checkSyncDuring makes every pair the test's simulation builds verify
// the home/remote synchronization invariant every 2048 fills.
func checkSyncDuring(t *testing.T) {
	prev := CheckSyncEvery(2048)
	t.Cleanup(func() { CheckSyncEvery(prev) })
}

// TestMemLinkFaultSoak drives the memory-link topology through >10k
// CABLE transfers under injection. Every injector-touched transfer
// must surface as exactly one decode error and one raw fallback.
func TestMemLinkFaultSoak(t *testing.T) {
	checkSyncDuring(t)
	cfg := DefaultMemLinkConfig("gobmk", "omnetpp")
	cfg.AccessesPerProgram = 30000
	cfg.Chip.LLCBytes = 128 << 10 // raise the miss rate: more transfers
	cfg.Chip.L4Bytes = 512 << 10
	cfg.Chip.Verify = false
	cfg.Chip.Fault = soakFault
	cfg.WithMeters = false
	res, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, x := res.Chip, &res.Chip.pair.Xfer
	transfers := c.Fills + c.WBs
	if transfers < 10000 {
		t.Fatalf("soak too small: %d transfers, want ≥10000", transfers)
	}
	if x.FaultsInjected == 0 {
		t.Fatalf("no faults injected over %d transfers at rate %g", transfers, soakFault.BitRate)
	}
	if x.DecodeErrors != x.FaultsInjected || x.RawFallbacks != x.FaultsInjected {
		t.Fatalf("accounting broken: faults=%d decodeErrors=%d rawFallbacks=%d",
			x.FaultsInjected, x.DecodeErrors, x.RawFallbacks)
	}
	t.Logf("memlink soak: %d transfers, %d faults degraded gracefully", transfers, x.FaultsInjected)
}

// TestMemLinkFaultDeterminism: same seed and rates must reproduce the
// identical result, bit for bit, on every run.
func TestMemLinkFaultDeterminism(t *testing.T) {
	run := func() (*MemLinkResult, error) {
		cfg := DefaultMemLinkConfig("gobmk")
		cfg.AccessesPerProgram = 8000
		cfg.Chip.LLCBytes = 128 << 10
		cfg.Chip.L4Bytes = 512 << 10
		cfg.Chip.Verify = false
		cfg.Chip.Fault = soakFault
		cfg.WithMeters = false
		return RunMemoryLink(cfg)
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Total["cable"] != b.Total["cable"] {
		t.Fatalf("faulted ratio not deterministic: %+v vs %+v", a.Total["cable"], b.Total["cable"])
	}
	xa, xb := &a.Chip.pair.Xfer, &b.Chip.pair.Xfer
	if xa.FaultsInjected != xb.FaultsInjected ||
		xa.DecodeErrors != xb.DecodeErrors ||
		xa.RawFallbacks != xb.RawFallbacks {
		t.Fatalf("fault counters not deterministic: %d/%d/%d vs %d/%d/%d",
			xa.FaultsInjected, xa.DecodeErrors, xa.RawFallbacks,
			xb.FaultsInjected, xb.DecodeErrors, xb.RawFallbacks)
	}
	if xa.FaultsInjected == 0 {
		t.Fatal("determinism check vacuous: no faults injected")
	}
}

// TestMemLinkZeroRateInert: the zero fault config must construct no
// injector and leave every new counter at zero.
func TestMemLinkZeroRateInert(t *testing.T) {
	cfg := DefaultMemLinkConfig("gobmk")
	cfg.AccessesPerProgram = 4000
	cfg.WithMeters = false
	res, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := &res.Chip.pair.Xfer
	if x.Injector != nil {
		t.Fatal("zero-rate run built an injector")
	}
	if x.FaultsInjected != 0 || x.DecodeErrors != 0 || x.RawFallbacks != 0 {
		t.Fatalf("zero-rate run counted degradation events: %d/%d/%d",
			x.FaultsInjected, x.DecodeErrors, x.RawFallbacks)
	}
	if x.degrade.faultsInjected != nil {
		t.Fatal("zero-rate run resolved the degradation counters (would register metric names)")
	}
}

// TestMultiChipFaultSoak mirrors the soak on the coherence-link
// topology.
func TestMultiChipFaultSoak(t *testing.T) {
	checkSyncDuring(t)
	cfg := DefaultMultiChipConfig("gobmk")
	cfg.Accesses = 60000
	cfg.LLCBytes = 128 << 10
	cfg.Verify = false
	cfg.Fault = soakFault
	cfg.WithMeters = false
	res, err := RunMultiChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	transfers := res.RemoteFills + res.DirtyWBs
	if transfers < 10000 {
		t.Fatalf("soak too small: %d transfers, want ≥10000", transfers)
	}
	if res.FaultsInjected == 0 {
		t.Fatalf("no faults injected over %d transfers", transfers)
	}
	if res.DecodeErrors != res.FaultsInjected || res.RawFallbacks != res.FaultsInjected {
		t.Fatalf("accounting broken: faults=%d decodeErrors=%d rawFallbacks=%d",
			res.FaultsInjected, res.DecodeErrors, res.RawFallbacks)
	}
	t.Logf("multichip soak: %d transfers, %d faults degraded gracefully", transfers, res.FaultsInjected)
}

// TestNonInclusiveFaultSoak mirrors the soak on the non-inclusive
// Home-Agent topology.
func TestNonInclusiveFaultSoak(t *testing.T) {
	checkSyncDuring(t)
	cfg := DefaultNonInclusiveConfig("gobmk")
	cfg.Accesses = 60000
	cfg.RemoteBytes = 128 << 10
	cfg.HomeBytes = 256 << 10
	cfg.Verify = false
	cfg.Fault = soakFault
	res, err := RunNonInclusive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	transfers := res.ForwardedFills + res.CachedFills + res.WBs
	if transfers < 10000 {
		t.Fatalf("soak too small: %d transfers, want ≥10000", transfers)
	}
	if res.FaultsInjected == 0 {
		t.Fatalf("no faults injected over %d transfers", transfers)
	}
	if res.DecodeErrors != res.FaultsInjected || res.RawFallbacks != res.FaultsInjected {
		t.Fatalf("accounting broken: faults=%d decodeErrors=%d rawFallbacks=%d",
			res.FaultsInjected, res.DecodeErrors, res.RawFallbacks)
	}
	t.Logf("non-inclusive soak: %d transfers, %d faults degraded gracefully", transfers, res.FaultsInjected)
}

// TestFaultDigestSplitsCells: fault config is behavioral, so it must
// change the canonical digest (faulted and clean memo cells never
// alias).
func TestFaultDigestSplitsCells(t *testing.T) {
	a := DefaultMemLinkConfig("gobmk")
	b := DefaultMemLinkConfig("gobmk")
	b.Chip.Fault = soakFault
	if a.Digest() == b.Digest() {
		t.Fatal("fault config not folded into MemLinkConfig digest")
	}
	ta := DefaultTimingConfig("cable", "gobmk")
	tb := DefaultTimingConfig("cable", "gobmk")
	tb.Fault = soakFault
	if ta.Digest() == tb.Digest() {
		t.Fatal("fault config not folded into TimingConfig digest")
	}
}
