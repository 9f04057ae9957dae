package cable_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cable"
)

func TestPublicAPILinkRoundTrip(t *testing.T) {
	home, err := cable.NewCache(cable.CacheConfig{Name: "l4", SizeBytes: 128 << 10, Ways: 16, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := cable.NewCache(cable.CacheConfig{Name: "llc", SizeBytes: 32 << 10, Ways: 8, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	he, re, err := cable.NewLink(cable.DefaultConfig(), home, remote)
	if err != nil {
		t.Fatal(err)
	}
	lineA := make([]byte, 64)
	for i := range lineA {
		lineA[i] = byte(i*3 + 1)
	}
	lineB := append([]byte(nil), lineA...)
	binary.LittleEndian.PutUint32(lineB[12:], 0x12345678)
	home.Insert(0x40, lineA, cable.Shared)
	home.Insert(0x91, lineB, cable.Shared)

	fill := func(addr uint64, want []byte) *cable.Payload {
		idx := remote.IndexOf(addr)
		way := remote.VictimWay(idx)
		p, _, err := he.EncodeFill(addr, cable.Shared, way)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.DecodeFill(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fill %#x mismatch", addr)
		}
		remote.InsertAt(addr, got, cable.Shared, way)
		re.OnFillInstalled(cable.LineID{Index: idx, Way: way}, got, cable.Shared)
		return &p
	}
	fill(0x40, lineA)
	p := fill(0x91, lineB)
	if !p.Compressed || len(p.Refs) == 0 {
		t.Fatalf("second fill should reference the first: %+v", p)
	}
	if bits := p.Bits(he.RemoteLIDBits()); bits >= 200 {
		t.Fatalf("near-copy cost %d bits, want ≪ 513", bits)
	}
}

func TestNewCacheValidates(t *testing.T) {
	if _, err := cable.NewCache(cable.CacheConfig{Name: "bad", SizeBytes: 100, Ways: 3, LineSize: 64}); err == nil {
		t.Fatal("invalid geometry should error")
	}
}

func TestNewLinkValidates(t *testing.T) {
	small, _ := cable.NewCache(cable.CacheConfig{Name: "s", SizeBytes: 8 << 10, Ways: 8, LineSize: 64})
	big, _ := cable.NewCache(cable.CacheConfig{Name: "b", SizeBytes: 64 << 10, Ways: 8, LineSize: 64})
	bad := cable.DefaultConfig()
	bad.MaxRefs = 9
	if _, _, err := cable.NewLink(bad, big, small); err == nil {
		t.Fatal("invalid config should error")
	}
	if _, _, err := cable.NewLink(cable.DefaultConfig(), big, small); err != nil {
		t.Fatal(err)
	}
}

// newCache builds an 8-way cache or fails the test.
func newCache(t *testing.T, size, line int) *cable.Cache {
	t.Helper()
	c, err := cable.NewCache(cable.CacheConfig{Name: "c", SizeBytes: size, Ways: 8, LineSize: line})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDriversRejectBadGeometry: every public driver and link
// constructor handed a cache geometry the cache package rejects, a
// home/remote pair no link can use (core.CheckPair), or a link with no
// bandwidth, returns that error before it builds anything — none
// panics, including inside the topology engine's worker goroutines,
// where a panic would kill the process.
func TestDriversRejectBadGeometry(t *testing.T) {
	drivers := []struct {
		name string
		run  func() error
	}{
		{"RunMemoryLink", func() error {
			cfg := cable.DefaultMemoryLinkConfig("gobmk")
			cfg.Chip.LLCBytes = 3 << 20
			_, err := cable.RunMemoryLink(cfg)
			return err
		}},
		{"RunMultiChip", func() error {
			cfg := cable.DefaultMultiChipConfig("gobmk")
			cfg.LLCBytes = 3 << 20
			_, err := cable.RunMultiChip(cfg)
			return err
		}},
		{"RunTiming", func() error {
			cfg := cable.DefaultTimingConfig("cable", "gobmk")
			cfg.LLCPerThread = 3 << 20
			_, err := cable.RunTiming(cfg)
			return err
		}},
		// With no link bandwidth the run used to return Seconds +Inf and
		// LinkUtil NaN instead of an error.
		{"RunTiming no link bandwidth", func() error {
			cfg := cable.DefaultTimingConfig("cable", "gobmk")
			cfg.TotalLinkBW = 0
			_, err := cable.RunTiming(cfg)
			return err
		}},
		{"RunNonInclusive", func() error {
			cfg := cable.DefaultNonInclusiveConfig("gobmk")
			cfg.RemoteWays = 0
			_, err := cable.RunNonInclusive(cfg)
			return err
		}},
		{"RunTopology", func() error {
			cfg := cable.DefaultTopologyConfig("gobmk")
			cfg.HomeBytes = 3 << 20
			_, err := cable.RunTopology(cfg)
			return err
		}},
		// A home cache with fewer sets than its remote cannot map the
		// remote's slots; on a topology's encode worker it used to kill
		// the process.
		{"RunTopology home smaller", func() error {
			cfg := cable.DefaultTopologyConfig("gobmk")
			cfg.HomeBytes, cfg.RemoteBytes = 64<<10, 256<<10
			_, err := cable.RunTopology(cfg)
			return err
		}},
		{"RunMemoryLink L4 smaller", func() error {
			cfg := cable.DefaultMemoryLinkConfig("gobmk")
			cfg.Chip.L4Bytes, cfg.Chip.L4Ways = 256<<10, 8
			_, err := cable.RunMemoryLink(cfg)
			return err
		}},
		{"NewLink home smaller", func() error {
			_, _, err := cable.NewLink(cable.DefaultConfig(), newCache(t, 16<<10, 64), newCache(t, 64<<10, 64))
			return err
		}},
		{"NewLink line sizes differ", func() error {
			_, _, err := cable.NewLink(cable.DefaultConfig(), newCache(t, 256<<10, 128), newCache(t, 64<<10, 64))
			return err
		}},
		{"NewSuperWMT home smaller", func() error {
			_, err := cable.NewSuperWMT(64, 4, newCache(t, 16<<10, 64), newCache(t, 64<<10, 64))
			return err
		}},
		{"NewSuperWMT no ways", func() error {
			_, err := cable.NewSuperWMT(64, 0, newCache(t, 64<<10, 64), newCache(t, 64<<10, 64))
			return err
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := d.run(); err == nil {
				t.Fatal("bad configuration accepted")
			}
		})
	}
}

func TestEnginesRegistry(t *testing.T) {
	for _, name := range cable.Engines() {
		e, err := cable.NewEngine(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		line := make([]byte, 64)
		line[7] = 0xAB
		enc := cable.Compress(e, line, nil)
		got, err := cable.Decompress(e, enc, nil, 64)
		if err != nil || !bytes.Equal(got, line) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
	}
}

func TestBenchmarksListed(t *testing.T) {
	if len(cable.Benchmarks()) != 29 {
		t.Fatalf("benchmarks = %d, want 29", len(cable.Benchmarks()))
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := cable.Experiments()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments", len(ids))
	}
	for _, id := range ids {
		if cable.DescribeExperiment(id) == "" {
			t.Fatalf("%s lacks a description", id)
		}
	}
}

func TestPublicSimulations(t *testing.T) {
	ml := cable.DefaultMemoryLinkConfig("gobmk")
	ml.AccessesPerProgram = 4000
	ml.Chip.LLCBytes = 64 << 10
	ml.Chip.L4Bytes = 256 << 10
	res, err := cable.RunMemoryLink(ml)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio("cable") <= 1 {
		t.Fatalf("cable ratio %.2f", res.Ratio("cable"))
	}

	mc := cable.DefaultMultiChipConfig("gobmk")
	mc.Accesses = 4000
	mc.LLCBytes = 64 << 10
	mres, err := cable.RunMultiChip(mc)
	if err != nil {
		t.Fatal(err)
	}
	if mres.RemoteFills == 0 {
		t.Fatal("no coherence traffic")
	}

	tc := cable.DefaultTimingConfig("cable", "gobmk")
	tc.Threads, tc.TotalTh = 2, 256
	tc.InstrPerTh = 50_000
	tc.LLCPerThread = 32 << 10
	tres, err := cable.RunTiming(tc)
	if err != nil {
		t.Fatal(err)
	}
	if tres.IPCPerThread <= 0 {
		t.Fatal("no progress in timing sim")
	}
}

func TestPublicExtensions(t *testing.T) {
	home, _ := cable.NewCache(cable.CacheConfig{Name: "h", SizeBytes: 64 << 10, Ways: 16, LineSize: 64})
	remote, _ := cable.NewCache(cable.CacheConfig{Name: "r", SizeBytes: 16 << 10, Ways: 8, LineSize: 64})
	pool, err := cable.NewSuperWMT(128, 4, home, remote)
	if err != nil {
		t.Fatal(err)
	}
	he, re, err := cable.NewLinkWithWayMap(cable.DefaultConfig(), home, remote, pool.View(0))
	if err != nil || he == nil || re == nil {
		t.Fatal(err)
	}

	ni := cable.DefaultNonInclusiveConfig("gobmk")
	ni.Accesses = 3000
	ni.RemoteBytes = 64 << 10
	ni.HomeBytes = 128 << 10
	res, err := cable.RunNonInclusive(ni)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cable.Value() <= 1 {
		t.Fatalf("non-inclusive ratio %.2f", res.Cable.Value())
	}
}
