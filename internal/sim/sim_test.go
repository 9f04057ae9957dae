package sim

import (
	"testing"

	"cable/internal/cache"
	"cable/internal/link"
	"cable/internal/workload"
)

func smallChipConfig() ChipConfig {
	cfg := DefaultChipConfig()
	cfg.LLCBytes = 64 << 10
	cfg.L4Bytes = 256 << 10
	return cfg
}

func smallMemLink(benchmarks ...string) MemLinkConfig {
	cfg := DefaultMemLinkConfig(benchmarks...)
	cfg.Chip = smallChipConfig()
	cfg.AccessesPerProgram = 20000
	return cfg
}

func TestMemLinkRunsAllSchemes(t *testing.T) {
	res, err := RunMemoryLink(smallMemLink("dealII"))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"none", "bdi", "cpack", "cpack128", "lbe256", "gzip", "cable"} {
		r, ok := res.Total[scheme]
		if !ok {
			t.Fatalf("scheme %s missing from results", scheme)
		}
		if r.SourceBits == 0 {
			t.Fatalf("scheme %s saw no traffic", scheme)
		}
	}
	// Every scheme sees the same source traffic.
	src := res.Total["none"].SourceBits
	for scheme, r := range res.Total {
		if r.SourceBits != src {
			t.Fatalf("scheme %s source bits %d != none %d", scheme, r.SourceBits, src)
		}
	}
}

func TestMemLinkSchemeOrdering(t *testing.T) {
	// The paper's qualitative ordering on a similarity-rich benchmark:
	// cable > {gzip, lbe256} > cpack > bdi ≥ none, and none ≈ 1.
	res, err := RunMemoryLink(smallMemLink("dealII"))
	if err != nil {
		t.Fatal(err)
	}
	get := res.Ratio
	if r := get("none"); r < 0.95 || r > 1.0+1e-9 {
		t.Fatalf("raw baseline ratio %v, want ≈1 (flit padding only)", r)
	}
	if get("cable") <= get("cpack") {
		t.Fatalf("cable %.2f should beat cpack %.2f", get("cable"), get("cpack"))
	}
	if get("cable") <= get("bdi") {
		t.Fatalf("cable %.2f should beat bdi %.2f", get("cable"), get("bdi"))
	}
	if get("cpack128") < get("cpack")*0.9 {
		t.Fatalf("cpack128 %.2f much worse than cpack %.2f", get("cpack128"), get("cpack"))
	}
	t.Logf("dealII ratios: cable=%.2f gzip=%.2f lbe256=%.2f cpack=%.2f bdi=%.2f",
		get("cable"), get("gzip"), get("lbe256"), get("cpack"), get("bdi"))
}

func TestMemLinkZeroDominantAllSchemesHigh(t *testing.T) {
	// Fig 12 right group: everything compresses well on mcf-like
	// traffic; CABLE and CPACK both reach high ratios.
	res, err := RunMemoryLink(smallMemLink("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"cpack", "lbe256", "cable"} {
		if r := res.Ratio(scheme); r < 6 {
			t.Fatalf("%s on mcf = %.2f, want ≥6", scheme, r)
		}
	}
}

func TestMemLinkMultiprogram(t *testing.T) {
	res, err := RunMemoryLink(smallMemLink("gcc", "bzip2", "tonto", "cactusADM"))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"gzip", "cable"} {
		per := res.PerProgram[scheme]
		if len(per) != 4 {
			t.Fatalf("%s per-program has %d entries", scheme, len(per))
		}
		var total uint64
		for _, r := range per {
			if r.SourceBits == 0 {
				t.Fatalf("%s: a program saw no traffic", scheme)
			}
			total += r.SourceBits
		}
		if total != res.Total[scheme].SourceBits {
			t.Fatalf("%s: per-program bits don't sum to total", scheme)
		}
	}
}

func TestChipInclusiveInvariant(t *testing.T) {
	cfg := smallMemLink("omnetpp")
	cfg.AccessesPerProgram = 15000
	res, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip := res.Chip
	violations := 0
	chip.LLC.ForEach(func(addr uint64, _ cache.LineID, _ *cache.Line) {
		if _, _, ok := chip.L4.Probe(addr); !ok {
			violations++
		}
	})
	if violations > 0 {
		t.Fatalf("%d LLC lines not present in L4 (inclusivity broken)", violations)
	}
	if chip.Fills == 0 || chip.WBs == 0 || chip.Upgrades == 0 {
		t.Fatalf("protocol paths unexercised: fills=%d wbs=%d upgrades=%d",
			chip.Fills, chip.WBs, chip.Upgrades)
	}
}

func TestChipDRAMTrafficConsistent(t *testing.T) {
	res, err := RunMemoryLink(smallMemLink("soplex"))
	if err != nil {
		t.Fatal(err)
	}
	chip := res.Chip
	if chip.Store.Reads == 0 {
		t.Fatal("no DRAM reads")
	}
	if chip.Store.Reads > chip.Fills {
		t.Fatalf("DRAM reads %d exceed fills %d (L4 should filter)", chip.Store.Reads, chip.Fills)
	}
}

func TestMetersQuantizeIdentically(t *testing.T) {
	// A meter fed incompressible lines must report ≈1× after flit
	// quantization (513 bits → 33 flits ≈ 0.97).
	m := NewRawMeterIn(link.DefaultConfig(), nil)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*37 + 1)
	}
	for i := 0; i < 10; i++ {
		m.OnFill(data, 0)
	}
	if r := m.Total().Value(); r != 1.0 {
		t.Fatalf("raw meter ratio %v, want exactly 1 (512 bits = 32 flits)", r)
	}
}

func TestTransferReporting(t *testing.T) {
	gen, _ := workload.New("gcc", 0, 0)
	chip, err := NewChip(smallChipConfig(), gen.LineData)
	if err != nil {
		t.Fatal(err)
	}
	sawFill, sawHit := false, false
	for i := 0; i < 20000 && !(sawFill && sawHit); i++ {
		tr := chip.Access(gen.Next(), 0)
		if tr.Fill {
			sawFill = true
			if tr.FillBits <= 0 {
				t.Fatal("fill with no bits")
			}
			if tr.LLCHit {
				t.Fatal("fill on an LLC hit")
			}
		}
		if tr.LLCHit {
			sawHit = true
			if tr.FillBits != 0 || tr.DRAMReads != 0 {
				t.Fatal("hit should not produce traffic")
			}
		}
	}
	if !sawFill || !sawHit {
		t.Fatalf("fill=%v hit=%v — stream did not exercise both", sawFill, sawHit)
	}
}

func TestRunMemoryLinkErrors(t *testing.T) {
	if _, err := RunMemoryLink(MemLinkConfig{}); err == nil {
		t.Fatal("empty benchmark list should error")
	}
	cfg := smallMemLink("nonexistent")
	if _, err := RunMemoryLink(cfg); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestProtocolDecoupledFromReplacementPolicy(t *testing.T) {
	// §II-C: "CABLE is decoupled from replacement policies because it
	// tracks cache line evictions precisely." The full protocol must
	// stay bit-exact (Verify panics otherwise) whatever picks victims.
	for _, policy := range []cache.Policy{cache.PolicyFIFO, cache.PolicyRandom} {
		gen, _ := workload.New("omnetpp", 0, 0)
		pcfg := smallChipConfig()
		pcfg.LLCPolicy = policy
		pcfg.L4Policy = policy
		pchip, err := NewChip(pcfg, gen.LineData)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10000; i++ {
			pchip.Access(gen.Next(), 0) // Verify=true: corruption panics
		}
		if pchip.Fills == 0 || pchip.WBs == 0 {
			t.Fatalf("policy %v: protocol unexercised", policy)
		}
		if pchip.CableTotal().Value() <= 1.2 {
			t.Fatalf("policy %v: ratio %.2f", policy, pchip.CableTotal().Value())
		}
	}
}
