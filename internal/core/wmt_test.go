package core

import (
	"testing"

	"cable/internal/cache"
)

func wmtPair(t testing.TB) (*cache.Cache, *cache.Cache, *WMT) {
	t.Helper()
	home := cache.New(cache.Config{Name: "home", SizeBytes: 64 << 10, Ways: 16, LineSize: 64})
	remote := cache.New(cache.Config{Name: "remote", SizeBytes: 16 << 10, Ways: 8, LineSize: 64})
	w, err := NewWMT(home.Config(), remote.Config())
	if err != nil {
		t.Fatal(err)
	}
	return home, remote, w
}

func TestWMTSetLookupClear(t *testing.T) {
	_, _, w := wmtPair(t)
	homeID := cache.LineID{Index: 37, Way: 5}
	remoteID := cache.LineID{Index: 37 & 31, Way: 2}
	if _, ok := w.Lookup(homeID); ok {
		t.Fatal("lookup hit in empty WMT")
	}
	w.Set(remoteID, homeID)
	got, ok := w.Lookup(homeID)
	if !ok || got != remoteID {
		t.Fatalf("Lookup = %v,%v want %v,true", got, ok, remoteID)
	}
	back, ok := w.Reverse(remoteID)
	if !ok || back != homeID {
		t.Fatalf("Reverse = %v,%v want %v,true", back, ok, homeID)
	}
	cleared, ok := w.Clear(remoteID)
	if !ok || cleared != homeID {
		t.Fatalf("Clear = %v,%v", cleared, ok)
	}
	if _, ok := w.Lookup(homeID); ok {
		t.Fatal("lookup hit after clear")
	}
}

func TestWMTSetReportsDisplacement(t *testing.T) {
	_, _, w := wmtPair(t)
	slot := cache.LineID{Index: 3, Way: 1}
	first := cache.LineID{Index: 3, Way: 0}
	second := cache.LineID{Index: 32 + 3, Way: 7} // alias 1
	w.Set(slot, first)
	displaced, was := w.Set(slot, second)
	if !was || displaced != first {
		t.Fatalf("displacement = %v,%v want %v,true", displaced, was, first)
	}
	got, ok := w.Reverse(slot)
	if !ok || got != second {
		t.Fatalf("slot now maps to %v", got)
	}
}

func TestWMTAliasDistinguishesHomeSets(t *testing.T) {
	// Two home lines whose indices differ only in alias bits land in
	// the same remote set; the WMT must tell them apart.
	_, _, w := wmtPair(t)
	a := cache.LineID{Index: 5, Way: 0}      // alias 0
	b := cache.LineID{Index: 32 + 5, Way: 0} // alias 1
	w.Set(cache.LineID{Index: 5, Way: 0}, a)
	w.Set(cache.LineID{Index: 5, Way: 1}, b)
	ra, ok := w.Lookup(a)
	if !ok || ra.Way != 0 {
		t.Fatalf("a → %v,%v", ra, ok)
	}
	rb, ok := w.Lookup(b)
	if !ok || rb.Way != 1 {
		t.Fatalf("b → %v,%v", rb, ok)
	}
}

func TestWMTClearHome(t *testing.T) {
	_, _, w := wmtPair(t)
	homeID := cache.LineID{Index: 9, Way: 3}
	slot := cache.LineID{Index: 9, Way: 6}
	w.Set(slot, homeID)
	rid, ok := w.ClearHome(homeID)
	if !ok || rid != slot {
		t.Fatalf("ClearHome = %v,%v", rid, ok)
	}
	if w.Occupancy() != 0 {
		t.Fatal("entry survived ClearHome")
	}
	if _, ok := w.ClearHome(homeID); ok {
		t.Fatal("second ClearHome should miss")
	}
}

func TestWMTSetPanicsOnIndexMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched remote set")
		}
	}()
	_, _, w := wmtPair(t)
	// home index 5 maps to remote set 5, not 6.
	w.Set(cache.LineID{Index: 6, Way: 0}, cache.LineID{Index: 5, Way: 0})
}

func TestWMTReverseBounds(t *testing.T) {
	_, _, w := wmtPair(t)
	ids := []cache.LineID{
		{Index: -1, Way: 0}, {Index: 0, Way: -1},
		{Index: 1 << 20, Way: 0}, {Index: 0, Way: 99},
	}
	for _, id := range ids {
		if _, ok := w.Reverse(id); ok {
			t.Fatalf("Reverse(%v) should miss", id)
		}
		if _, ok := w.Clear(id); ok {
			t.Fatalf("Clear(%v) should miss", id)
		}
	}
}

func TestWMTForEach(t *testing.T) {
	_, _, w := wmtPair(t)
	homeID := cache.LineID{Index: 32 + 7, Way: 2}
	slot := cache.LineID{Index: 7, Way: 4}
	w.Set(slot, homeID)
	n := 0
	w.ForEach(func(rid, hid cache.LineID) {
		n++
		if rid != slot || hid != homeID {
			t.Fatalf("ForEach gave %v→%v", rid, hid)
		}
	})
	if n != 1 {
		t.Fatalf("visited %d entries", n)
	}
}

func TestWMTEntryBitsPaperGeometry(t *testing.T) {
	// §IV-D: 8-way 8MB LLC remote, 16MB buffer home → WMT overhead
	// ~0.4% of the home data cache.
	home := cache.New(cache.Config{Name: "l4", SizeBytes: 16 << 20, Ways: 8, LineSize: 64})
	remote := cache.New(cache.Config{Name: "llc", SizeBytes: 8 << 20, Ways: 8, LineSize: 64})
	w, err := NewWMT(home.Config(), remote.Config())
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(w.SizeBits(home.WayBits())) / float64(16<<20*8)
	if frac < 0.002 || frac > 0.006 {
		t.Fatalf("WMT overhead %.4f, want ≈0.004 (paper: 0.4%%)", frac)
	}
	// alias(1) + way(3) + valid(1) = 5 bits with this geometry; the
	// paper quotes 4 (1 alias + 3 way) excluding the valid bit.
	if got := w.EntryBits(home.WayBits()) - 1; got != 4 {
		t.Fatalf("entry payload bits = %d, want 4", got)
	}
}

// TestCheckPairRejectsBadPairs: every pair a link cannot be built over
// is an error from CheckPair, and from each constructor that returns it
// (NewWMT, NewSuperWMT, NewHomeEnd) — never a panic.
func TestCheckPairRejectsBadPairs(t *testing.T) {
	cfg := func(name string, size, ways, line int) cache.Config {
		return cache.Config{Name: name, SizeBytes: size, Ways: ways, LineSize: line}
	}
	remote := cfg("r", 64<<10, 8, 64)
	for _, tc := range []struct {
		name string
		home cache.Config
	}{
		{"home smaller", cfg("h", 8<<10, 8, 64)},
		{"home fewer sets", cfg("h", 256<<10, 256, 64)},
		{"line sizes differ", cfg("h", 512<<10, 8, 128)},
		{"home ways past the packed entry", cfg("h", 64<<21, 1<<15, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.home.Validate(); err != nil {
				t.Fatalf("the home geometry itself is bad: %v", err)
			}
			if err := CheckPair(tc.home, remote); err == nil {
				t.Fatal("CheckPair accepted the pair")
			}
			if _, err := NewWMT(tc.home, remote); err == nil {
				t.Fatal("NewWMT accepted the pair")
			}
			if tc.home.SizeBytes > 1<<20 {
				return // the cases below build the caches
			}
			h, r := cache.New(tc.home), cache.New(remote)
			if _, err := NewSuperWMT(64, 4, h, r); err == nil {
				t.Fatal("NewSuperWMT accepted the pair")
			}
			if _, err := NewHomeEnd(DefaultConfig(), h, r); err == nil {
				t.Fatal("NewHomeEnd accepted the pair")
			}
		})
	}
	if err := CheckPair(cfg("h", 256<<10, 16, 64), remote); err != nil {
		t.Fatalf("a valid pair: %v", err)
	}
	h, r := cache.New(cfg("h", 256<<10, 16, 64)), cache.New(remote)
	if _, err := NewSuperWMT(64, 0, h, r); err == nil {
		t.Fatal("NewSuperWMT accepted 0 ways")
	}
}
