package core

import (
	"encoding/binary"
	"testing"

	"cable/internal/cache"
)

// fig7Harness builds a home/remote pair with specific resident lines.
func fig7Harness(t *testing.T) (*HomeEnd, *RemoteEnd, *cache.Cache, *cache.Cache) {
	t.Helper()
	home := cache.New(cache.Config{Name: "home", SizeBytes: 64 << 10, Ways: 16, LineSize: 64})
	remote := cache.New(cache.Config{Name: "remote", SizeBytes: 16 << 10, Ways: 8, LineSize: 64})
	he, err := NewHomeEnd(DefaultConfig(), home, remote)
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewRemoteEnd(DefaultConfig(), remote)
	if err != nil {
		t.Fatal(err)
	}
	return he, re, home, remote
}

// install pushes a line through the fill path so all structures sync.
func install(t *testing.T, he *HomeEnd, re *RemoteEnd, home, remote *cache.Cache, addr uint64, data []byte) {
	t.Helper()
	home.Insert(addr, data, cache.Shared)
	idx := remote.IndexOf(addr)
	way := remote.VictimWay(idx)
	p, _, err := he.EncodeFill(addr, cache.Shared, way)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.DecodeFill(p)
	if err != nil {
		t.Fatal(err)
	}
	remote.InsertAt(addr, got, cache.Shared, way)
	re.OnFillInstalled(cache.LineID{Index: idx, Way: way}, got, cache.Shared)
}

// TestFig7HashCollisionFiltered reproduces the Fig 7 scenario: two
// dissimilar lines whose signatures collide into one hash bucket. The
// CBV ranking must reject the false positive — the dissimilar line
// never becomes a reference.
func TestFig7HashCollisionFiltered(t *testing.T) {
	he, re, home, remote := fig7Harness(t)

	// A line of distinctive content, installed and hash-indexed.
	ref := make([]byte, 64)
	for i := range ref {
		ref[i] = byte(i*41 + 3)
	}
	install(t, he, re, home, remote, 0x100, ref)

	// Force a colliding hash-table entry: insert a bogus LineID under
	// the same signatures the requested line will search for. The
	// bogus slot holds totally dissimilar content.
	junk := make([]byte, 64)
	for i := range junk {
		junk[i] = byte(255 - i)
	}
	install(t, he, re, home, remote, 0x222, junk)
	req := append([]byte(nil), ref...)
	binary.LittleEndian.PutUint32(req[8:], 0xFEED0001)
	junkLine, junkID, _ := home.Probe(0x222)
	for _, s := range he.ex.AppendSearchSignatures(nil, req, 16) {
		he.ht.Insert(s, junkID) // artificial collisions (Fig 7)
	}
	_ = junkLine

	home.Insert(0x300, req, cache.Shared)
	way := remote.VictimWay(remote.IndexOf(0x300))
	p, _, err := he.EncodeFill(0x300, cache.Shared, way)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Compressed || len(p.Refs) == 0 {
		t.Fatalf("near-copy should compress with references: %+v", p)
	}
	// Every chosen reference must be the similar line, never the
	// colliding junk line.
	junkRemote, ok := he.wmt.Lookup(junkID)
	if !ok {
		t.Fatal("junk line should be remote-resident (it was installed)")
	}
	for _, rid := range p.Refs {
		if rid == junkRemote {
			t.Fatal("hash-collision false positive survived CBV ranking")
		}
	}
	got, err := re.DecodeFill(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != req[i] {
			t.Fatal("decode mismatch")
		}
	}
}

// TestEncodeStatsConsistency checks the bookkeeping identities the
// reports depend on.
func TestEncodeStatsConsistency(t *testing.T) {
	cfg := DefaultConfig()
	h := newLinkHarness(t, cfg, 64, 16)
	for i := 0; i < 2000; i++ {
		h.request(uint64(h.rng.Intn(1024)), h.rng.Intn(4) == 0)
	}
	st := h.he.Stats
	if st.Fills != st.RawWins+st.StandaloneWins+st.DiffWins {
		t.Fatalf("fills %d ≠ raw %d + standalone %d + diff %d",
			st.Fills, st.RawWins, st.StandaloneWins, st.DiffWins)
	}
	var refSum uint64
	for _, n := range st.RefsUsed {
		refSum += n
	}
	if refSum != st.StandaloneWins+st.DiffWins {
		t.Fatalf("refs histogram %d ≠ compressed payloads %d", refSum, st.StandaloneWins+st.DiffWins)
	}
	if st.RefsUsed[0] != st.StandaloneWins {
		t.Fatalf("zero-ref payloads %d ≠ standalone wins %d", st.RefsUsed[0], st.StandaloneWins)
	}
	if st.SourceBits != st.Fills*512 {
		t.Fatalf("source bits %d ≠ fills × 512", st.SourceBits)
	}
	if st.PayloadBits >= st.SourceBits {
		t.Fatal("payloads did not compress overall")
	}
}

// TestWritebackRefsAlwaysResolvable: every reference a write-back
// carries must translate through the home WMT — the §III-G correctness
// condition — across heavy random traffic.
func TestWritebackRefsAlwaysResolvable(t *testing.T) {
	cfg := DefaultConfig()
	h := newLinkHarness(t, cfg, 64, 16)
	for i := 0; i < 5000; i++ {
		h.request(uint64(h.rng.Intn(1024)), h.rng.Intn(2) == 0) // write-heavy
	}
	if h.re.Stats.WBDiffWins == 0 {
		t.Fatal("no reference-carrying write-backs exercised")
	}
	// The harness already hard-fails on DecodeWritebackFrom errors; reaching
	// here with WBDiffWins > 0 is the assertion.
}
