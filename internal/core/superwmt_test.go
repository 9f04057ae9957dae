package core

import (
	"math/rand"
	"testing"

	"cable/internal/cache"
)

func superPool(t testing.TB, capacity int) (*SuperWMT, *cache.Cache, *cache.Cache) {
	t.Helper()
	home := cache.New(cache.Config{Name: "home", SizeBytes: 64 << 10, Ways: 16, LineSize: 64})
	remote := cache.New(cache.Config{Name: "remote", SizeBytes: 16 << 10, Ways: 8, LineSize: 64})
	pool, err := NewSuperWMT(capacity, 4, home, remote)
	if err != nil {
		t.Fatal(err)
	}
	return pool, home, remote
}

func TestSuperWMTBasicsPerPeer(t *testing.T) {
	pool, _, _ := superPool(t, 1024)
	v1, v2 := pool.View(1), pool.View(2)
	homeID := cache.LineID{Index: 37, Way: 5}
	slot := cache.LineID{Index: 37 & 31, Way: 2}
	v1.Set(slot, homeID)

	got, ok := v1.Lookup(homeID)
	if !ok || got != slot {
		t.Fatalf("peer1 lookup = %v,%v", got, ok)
	}
	if _, ok := v2.Lookup(homeID); ok {
		t.Fatal("peer2 sees peer1's entry")
	}
	back, ok := v1.Reverse(slot)
	if !ok || back != homeID {
		t.Fatalf("reverse = %v,%v", back, ok)
	}
	if _, ok := v2.Reverse(slot); ok {
		t.Fatal("peer2 reverse hit")
	}
	if v1.Occupancy() != 1 || v2.Occupancy() != 0 {
		t.Fatalf("occupancy %d/%d", v1.Occupancy(), v2.Occupancy())
	}
	cleared, ok := v1.Clear(slot)
	if !ok || cleared != homeID {
		t.Fatalf("clear = %v,%v", cleared, ok)
	}
	if v1.Occupancy() != 0 {
		t.Fatal("entry survived clear")
	}
}

func TestSuperWMTSameSlotOverwrite(t *testing.T) {
	pool, _, _ := superPool(t, 1024)
	v := pool.View(1)
	slot := cache.LineID{Index: 3, Way: 1}
	first := cache.LineID{Index: 3, Way: 0}
	second := cache.LineID{Index: 32 + 3, Way: 7}
	v.Set(slot, first)
	displaced, was := v.Set(slot, second)
	if !was || displaced != first {
		t.Fatalf("displacement = %v,%v", displaced, was)
	}
	if got, _ := v.Reverse(slot); got != second {
		t.Fatalf("slot holds %v", got)
	}
}

func TestSuperWMTClearHome(t *testing.T) {
	pool, _, _ := superPool(t, 1024)
	v := pool.View(2)
	homeID := cache.LineID{Index: 9, Way: 3}
	slot := cache.LineID{Index: 9, Way: 6}
	v.Set(slot, homeID)
	rid, ok := v.ClearHome(homeID)
	if !ok || rid != slot {
		t.Fatalf("ClearHome = %v,%v", rid, ok)
	}
	if _, ok := v.ClearHome(homeID); ok {
		t.Fatal("second ClearHome should miss")
	}
}

func TestSuperWMTCapacityEviction(t *testing.T) {
	// A tiny pool under load must evict (LRU) and never exceed
	// capacity — that is the point of the extension.
	pool, _, remote := superPool(t, 64)
	v := pool.View(1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		idx := rng.Intn(remote.NumSets())
		way := rng.Intn(remote.Config().Ways)
		alias := rng.Intn(2)
		homeID := cache.LineID{Index: alias<<5 | idx, Way: rng.Intn(16)}
		v.Set(cache.LineID{Index: idx, Way: way}, homeID)
	}
	if pool.Evictions == 0 {
		t.Fatal("no pool evictions under heavy load")
	}
	if occ := v.Occupancy(); occ > pool.Capacity() {
		t.Fatalf("occupancy %d exceeds capacity %d", occ, pool.Capacity())
	}
}

func TestSuperWMTForEach(t *testing.T) {
	pool, _, _ := superPool(t, 1024)
	v1, v2 := pool.View(1), pool.View(2)
	v1.Set(cache.LineID{Index: 1, Way: 0}, cache.LineID{Index: 1, Way: 0})
	v1.Set(cache.LineID{Index: 2, Way: 0}, cache.LineID{Index: 2, Way: 0})
	v2.Set(cache.LineID{Index: 3, Way: 0}, cache.LineID{Index: 3, Way: 0})
	n := 0
	v1.ForEach(func(rid, hid cache.LineID) { n++ })
	if n != 2 {
		t.Fatalf("peer1 ForEach saw %d entries, want 2", n)
	}
}

func TestSuperWMTSetPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pool, _, _ := superPool(t, 64)
	pool.View(1).Set(cache.LineID{Index: 6, Way: 0}, cache.LineID{Index: 5, Way: 0})
}

// TestHomeEndWithSuperWMT runs the full link protocol with a pooled
// way-map small enough to thrash: correctness must hold (every payload
// decodes exactly) even as pool evictions silently drop reference
// tracking.
func TestHomeEndWithSuperWMT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WritebackCompression = false // pool evictions are invisible remotely
	home := cache.New(cache.Config{Name: "l4", SizeBytes: 64 << 10, Ways: 16, LineSize: 64})
	remote := cache.New(cache.Config{Name: "llc", SizeBytes: 16 << 10, Ways: 8, LineSize: 64})
	pool, err := NewSuperWMT(32, 4, home, remote) // tiny: constant eviction
	if err != nil {
		t.Fatal(err)
	}
	he, err := NewHomeEndWithWayMap(cfg, home, remote, pool.View(0))
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewRemoteEnd(cfg, remote)
	if err != nil {
		t.Fatal(err)
	}
	h := &linkHarness{
		t: t, lineSize: 64, rng: rand.New(rand.NewSource(7)),
		home: home, remote: remote, he: he, re: re,
		backing: make(map[uint64][]byte),
	}
	for i := 0; i < 6; i++ {
		p := make([]byte, 64)
		h.rng.Read(p)
		h.protos = append(h.protos, p)
	}
	for i := 0; i < 3000; i++ {
		h.request(uint64(h.rng.Intn(1024)), h.rng.Intn(4) == 0)
	}
	if pool.Evictions == 0 {
		t.Fatal("pool never evicted — not exercising the extension")
	}
	if h.fills < 500 {
		t.Fatalf("only %d fills", h.fills)
	}
	// With a thrashing pool fewer references are available, but the
	// protocol must still produce some DIFFs and stay exact.
	t.Logf("super-WMT: %d fills, %d diff wins, %d pool evictions",
		h.fills, h.he.Stats.DiffWins, pool.Evictions)
}
