package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testCache(t testing.TB) *Cache {
	t.Helper()
	return New(Config{Name: "test", SizeBytes: 8 << 10, Ways: 4, LineSize: 64})
}

func line64(b byte) []byte {
	d := make([]byte, 64)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 4, LineSize: 64},
		{Name: "odd", SizeBytes: 1000, Ways: 4, LineSize: 64},
		{Name: "nonpow2sets", SizeBytes: 3 * 4 * 64, Ways: 4, LineSize: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.Name)
		}
	}
	good := Config{Name: "ok", SizeBytes: 1 << 20, Ways: 8, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometry(t *testing.T) {
	// Paper Table III: 8-way 8MB LLC with 64B lines → 17-bit LineIDs.
	c := New(Config{Name: "llc", SizeBytes: 8 << 20, Ways: 8, LineSize: 64})
	if c.NumSets() != 16384 {
		t.Fatalf("sets = %d, want 16384", c.NumSets())
	}
	if c.IndexBits() != 14 || c.WayBits() != 3 {
		t.Fatalf("index/way bits = %d/%d, want 14/3", c.IndexBits(), c.WayBits())
	}
	if c.LineIDBits() != 17 {
		t.Fatalf("LineIDBits = %d, want 17 (paper Table III)", c.LineIDBits())
	}
	// 16-way 16MB DRAM buffer → 18-bit HomeLIDs (§IV-D).
	l4 := New(Config{Name: "l4", SizeBytes: 16 << 20, Ways: 16, LineSize: 64})
	if l4.LineIDBits() != 18 {
		t.Fatalf("L4 LineIDBits = %d, want 18", l4.LineIDBits())
	}
	// A Config answers the same questions without building the cache,
	// non-power-of-two way counts included.
	for _, cfg := range []Config{c.Config(), l4.Config(), {Name: "odd", SizeBytes: 12 << 10, Ways: 12, LineSize: 64}} {
		b := New(cfg)
		if cfg.NumSets() != b.NumSets() || cfg.NumLines() != b.NumLines() || cfg.IndexBits() != b.IndexBits() ||
			cfg.WayBits() != b.WayBits() || cfg.LineIDBits() != b.LineIDBits() {
			t.Fatalf("%s: Config geometry %d/%d/%d/%d/%d differs from the built cache's %d/%d/%d/%d/%d", cfg.Name,
				cfg.NumSets(), cfg.NumLines(), cfg.IndexBits(), cfg.WayBits(), cfg.LineIDBits(),
				b.NumSets(), b.NumLines(), b.IndexBits(), b.WayBits(), b.LineIDBits())
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	c := testCache(t)
	f := func(lineAddr uint64) bool {
		lineAddr &= (1 << 40) - 1
		idx := c.IndexOf(lineAddr)
		tag := c.TagOf(lineAddr)
		return c.AddrOf(tag, idx) == lineAddr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertLookup(t *testing.T) {
	c := testCache(t)
	if _, _, ok := c.Access(100); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert(100, line64(0xAA), Shared)
	l, id, ok := c.Access(100)
	if !ok {
		t.Fatal("miss after insert")
	}
	if l.State != Shared || l.Data[0] != 0xAA {
		t.Fatalf("wrong line: %v %x", l.State, l.Data[0])
	}
	if got := c.ReadByID(id); got == nil || got.Data[0] != 0xAA {
		t.Fatal("ReadByID disagrees with Access")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestInsertCopiesData(t *testing.T) {
	c := testCache(t)
	d := line64(1)
	c.Insert(7, d, Shared)
	d[0] = 99
	l, _, _ := c.Probe(7)
	if l.Data[0] != 1 {
		t.Fatal("Insert must copy the data slice")
	}
}

func TestLRUEviction(t *testing.T) {
	c := testCache(t) // 32 sets, 4 ways
	sets := uint64(c.NumSets())
	// Fill one set: addresses with the same index.
	for i := uint64(0); i < 4; i++ {
		if _, _, occupied := c.Victim(5 + i*sets); occupied {
			t.Fatalf("unexpected eviction filling ways (%d)", i)
		}
		c.Insert(5+i*sets, line64(byte(i)), Shared)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Access(5 + 0*sets)
	_, victim, occupied := c.Victim(5 + 9*sets)
	if !occupied {
		t.Fatal("expected an eviction from a full set")
	}
	ev, _ := c.Invalidate(victim)
	if ev.LineAddr != 5+1*sets {
		t.Fatalf("evicted %d, want LRU line %d", ev.LineAddr, 5+sets)
	}
	if ev.Data[0] != 1 {
		t.Fatalf("eviction carries wrong data %x", ev.Data[0])
	}
	c.Insert(5+9*sets, line64(9), Shared)
	if _, id, _ := c.Probe(5 + 9*sets); id != ev.ID {
		t.Fatalf("fill landed at %v, not in the freed way %v", id, ev.ID)
	}
}

// TestInvalidateReturnsSlotBuffer pins Invalidate's lifetime rule: the
// Eviction's Data is the slot's own buffer, unchanged until the slot's
// next InsertAt, which overwrites it.
func TestInvalidateReturnsSlotBuffer(t *testing.T) {
	c := testCache(t)
	sets := uint64(c.NumSets())
	c.Insert(3, line64(7), Modified)
	ev, _ := c.Invalidate(3)
	// Installs elsewhere, even in the same set, leave it alone.
	c.Insert(4, line64(1), Shared)
	c.InsertAt(3+sets, line64(2), Shared, ev.ID.Way+1)
	if ev.Data[0] != 7 || len(ev.Data) != 64 {
		t.Fatalf("evicted bytes changed before the slot was reused: %x (len %d)", ev.Data[0], len(ev.Data))
	}
	c.InsertAt(3+2*sets, line64(9), Shared, ev.ID.Way)
	l := c.ReadByID(ev.ID)
	if &l.Data[0] != &ev.Data[0] || ev.Data[0] != 9 {
		t.Fatal("Invalidate did not return the slot's buffer, or the next install did not reuse it")
	}
}

// TestInsertAtCountsEviction: installing over an occupied way counts an
// eviction though nothing is copied out; a free way counts none.
func TestInsertAtCountsEviction(t *testing.T) {
	c := testCache(t)
	c.InsertAt(5, line64(1), Shared, 2)
	if c.Stats.Evictions != 0 {
		t.Fatalf("install into a free way counted %d evictions", c.Stats.Evictions)
	}
	c.InsertAt(5+uint64(c.NumSets()), line64(2), Shared, 2)
	if c.Stats.Evictions != 1 {
		t.Fatalf("install over an occupied way counted %d evictions, want 1", c.Stats.Evictions)
	}
	if _, _, ok := c.Probe(5); ok {
		t.Fatal("the displaced line is still resident")
	}
}

func TestVictimWayPrefersInvalid(t *testing.T) {
	c := testCache(t)
	c.Insert(3, line64(0), Shared)
	idx := c.IndexOf(3)
	w := c.VictimWay(idx)
	if w == 0 {
		// way 0 holds the only valid line; victim must be another way
		t.Fatal("victim should be an invalid way")
	}
}

func TestVictimWayMatchesInsert(t *testing.T) {
	// The way-replacement info a remote cache sends must predict
	// exactly where Insert will place the line (§IV-B).
	c := testCache(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(512))
		idx := c.IndexOf(addr)
		if _, _, hit := c.Access(addr); hit {
			continue
		}
		predicted := c.VictimWay(idx)
		c.Insert(addr, line64(byte(i)), Shared)
		_, id, ok := c.Probe(addr)
		if !ok || id.Way != predicted {
			t.Fatalf("iter %d: inserted at way %d, predicted %d", i, id.Way, predicted)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := testCache(t)
	c.Insert(42, line64(7), Modified)
	ev, ok := c.Invalidate(42)
	if !ok || ev.State != Modified || ev.Data[0] != 7 {
		t.Fatalf("invalidate returned %+v, %v", ev, ok)
	}
	if _, _, hit := c.Probe(42); hit {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(42); ok {
		t.Fatal("second invalidate should miss")
	}
}

func TestReadByIDBounds(t *testing.T) {
	c := testCache(t)
	for _, id := range []LineID{{-1, 0}, {0, -1}, {c.NumSets(), 0}, {0, 99}} {
		if c.ReadByID(id) != nil {
			t.Fatalf("out-of-range id %v returned a line", id)
		}
	}
	if c.ReadByID(LineID{0, 0}) != nil {
		t.Fatal("invalid entry should read as nil")
	}
}

func TestLineAddrOf(t *testing.T) {
	c := testCache(t)
	c.Insert(1234, line64(0), Shared)
	_, id, _ := c.Probe(1234)
	got, ok := c.LineAddrOf(id)
	if !ok || got != 1234 {
		t.Fatalf("LineAddrOf = %d,%v want 1234,true", got, ok)
	}
}

func TestForEachAndOccupancy(t *testing.T) {
	c := testCache(t)
	for i := uint64(0); i < 10; i++ {
		c.Insert(i, line64(byte(i)), Shared)
	}
	if got := c.Occupancy(); got != 10 {
		t.Fatalf("occupancy = %d, want 10", got)
	}
	seen := map[uint64]bool{}
	c.ForEach(func(addr uint64, id LineID, l *Line) { seen[addr] = true })
	if len(seen) != 10 {
		t.Fatalf("ForEach visited %d lines", len(seen))
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	c := testCache(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		c.Insert(uint64(rng.Intn(4096)), line64(byte(i)), Shared)
		if c.Occupancy() > c.NumLines() {
			t.Fatal("occupancy exceeds capacity")
		}
	}
	if c.Occupancy() != c.NumLines() {
		t.Fatalf("cache should be full: %d/%d", c.Occupancy(), c.NumLines())
	}
}

// Property: after any sequence of inserts, at most one copy of each
// line address exists (no tag duplicated within a set).
func TestNoDuplicateTags(t *testing.T) {
	f := func(seed int64) bool {
		c := New(Config{Name: "q", SizeBytes: 4 << 10, Ways: 4, LineSize: 64})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(256))
			if _, _, hit := c.Access(addr); !hit {
				c.Insert(addr, line64(byte(i)), Shared)
			}
		}
		seen := map[uint64]int{}
		c.ForEach(func(addr uint64, _ LineID, _ *Line) { seen[addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(9): "?"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestPolicyFIFO(t *testing.T) {
	c := New(Config{Name: "fifo", SizeBytes: 8 << 10, Ways: 4, LineSize: 64, Policy: PolicyFIFO})
	sets := uint64(c.NumSets())
	for i := uint64(0); i < 4; i++ {
		c.Insert(3+i*sets, line64(byte(i)), Shared)
	}
	// Touching line 0 must NOT save it under FIFO.
	c.Access(3 + 0*sets)
	_, victim, occupied := c.Victim(3 + 9*sets)
	ev, _ := c.Invalidate(victim)
	if !occupied || ev.LineAddr != 3+0*sets || ev.Data[0] != 0 {
		t.Fatalf("FIFO should evict the oldest insertion, got %#x", ev.LineAddr)
	}
	c.Insert(3+9*sets, line64(9), Shared)
}

func TestPolicyRandomDeterministicAndStable(t *testing.T) {
	mk := func() *Cache {
		return New(Config{Name: "rnd", SizeBytes: 8 << 10, Ways: 4, LineSize: 64, Policy: PolicyRandom})
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		addr := uint64(i*37) % 512
		if wa, wb := a.VictimWay(a.IndexOf(addr)), b.VictimWay(b.IndexOf(addr)); wa != wb {
			t.Fatalf("iter %d: random policy not deterministic (%d vs %d)", i, wa, wb)
		}
		a.Insert(addr, line64(byte(i)), Shared)
		b.Insert(addr, line64(byte(i)), Shared)
	}
	// Stability: repeated VictimWay calls without insertions agree.
	c := mk()
	for i := uint64(0); i < 8; i++ {
		c.Insert(i*uint64(c.NumSets()), line64(1), Shared) // fill set 0
	}
	w1 := c.VictimWay(0)
	w2 := c.VictimWay(0)
	if w1 != w2 {
		t.Fatalf("VictimWay not stable between insertions: %d vs %d", w1, w2)
	}
}

func TestPolicyRandomSpreadsWays(t *testing.T) {
	c := New(Config{Name: "rnd", SizeBytes: 8 << 10, Ways: 4, LineSize: 64, Policy: PolicyRandom})
	// Fill set 0 so no invalid way short-circuits.
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*uint64(c.NumSets()), line64(1), Shared)
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		w := c.VictimWay(0)
		seen[w] = true
		c.InsertAt(uint64(i+10)*uint64(c.NumSets()), line64(2), Shared, w)
	}
	if len(seen) < 3 {
		t.Fatalf("random policy used only %d distinct ways", len(seen))
	}
}
