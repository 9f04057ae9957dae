package sim

import "testing"

func TestPrivateHierFiltering(t *testing.T) {
	p := newPrivateHier(l1Bytes, l2Bytes)
	if lvl := p.lookup(100); lvl != 0 {
		t.Fatalf("cold access hit level %d", lvl)
	}
	if lvl := p.lookup(100); lvl != 1 {
		t.Fatalf("second access should hit L1, got %d", lvl)
	}
	if p.L1Accesses != 2 || p.L2Accesses != 1 {
		t.Fatalf("counters: L1=%d L2=%d", p.L1Accesses, p.L2Accesses)
	}
}

func TestPrivateHierL2Promotion(t *testing.T) {
	p := newPrivateHier(4<<10, 64<<10)
	// Touch enough lines to overflow L1 (64 lines) but not L2.
	for addr := uint64(0); addr < 256; addr++ {
		p.lookup(addr)
	}
	// Line 0 was evicted from L1 but should still be in L2.
	if lvl := p.lookup(0); lvl != 2 {
		t.Fatalf("expected L2 hit for evicted L1 line, got %d", lvl)
	}
	// After promotion it hits L1 again.
	if lvl := p.lookup(0); lvl != 1 {
		t.Fatalf("expected L1 hit after promotion, got %d", lvl)
	}
}

func TestTimingPrivateLevelsPopulated(t *testing.T) {
	res, err := RunTiming(quickTiming("none", "gobmk", 256))
	if err != nil {
		t.Fatal(err)
	}
	if res.L1Accesses == 0 || res.L2Accesses == 0 {
		t.Fatalf("private counters empty: L1=%d L2=%d", res.L1Accesses, res.L2Accesses)
	}
	if res.L2Accesses >= res.L1Accesses {
		t.Fatalf("L2 accesses %d should be < L1 %d (L1 filters)", res.L2Accesses, res.L1Accesses)
	}
	// Writes bypass the private levels (write-through model), so the
	// LLC sees L2-miss reads plus every store — strictly fewer than
	// total references.
	if res.LLCAccesses >= res.L1Accesses {
		t.Fatalf("LLC accesses %d should be < total refs %d", res.LLCAccesses, res.L1Accesses)
	}
}
