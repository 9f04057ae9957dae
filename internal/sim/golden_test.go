package sim

import (
	"testing"

	"cable/internal/cache"
	"cable/internal/core"
	"cable/internal/golden"
	"cable/internal/link"
	"cable/internal/obs"
	"cable/internal/stats"
)

// goldenChip is every observable a memory-link run leaves on its chip.
type goldenChip struct {
	Accesses, Fills, WBs, Upgrades, CompOps, DecompOps, Notices uint64
	FaultsInjected, DecodeErrors, RawFallbacks                  uint64
	LLC, L4                                                     cache.Stats
	StoreReads, StoreWrites                                     uint64
	Home                                                        core.HomeStats
	Remote                                                      core.RemoteStats
	Scheme                                                      stats.Ratio
	Wire                                                        link.Link
}

// TestGoldenDrivers pins RunMemoryLink, RunMultiChip and
// RunNonInclusive bit for bit against hashes recorded at the commit
// before the protocol pair existed: a mismatch means a refactor changed
// simulated behaviour.
func TestGoldenDrivers(t *testing.T) {
	got := map[string]string{}

	memlink := func(name string, v golden.Variant, mutate func(*MemLinkConfig)) {
		reg := obs.NewRegistry()
		rec := obs.NewRecorder(obs.FlightConfig{Window: 512})
		cfg := DefaultMemLinkConfig("dealII", "mcf")
		cfg.AccessesPerProgram = 5000
		cfg.Chip.LLCBytes, cfg.Chip.L4Bytes = 64<<10, 256<<10
		cfg.Chip.Fault, cfg.Chip.Verify = v.Fault, v.Verify
		cfg.Metrics, cfg.Recorder = reg, rec
		mutate(&cfg)
		res, err := RunMemoryLink(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, v.Name, err)
		}
		c, x := res.Chip, &res.Chip.pair.Xfer
		gc := goldenChip{
			Accesses: c.Accesses, Fills: c.Fills, WBs: c.WBs, Upgrades: c.Upgrades,
			CompOps: c.CompOps, DecompOps: c.DecompOps, Notices: c.Notices,
			FaultsInjected: x.FaultsInjected, DecodeErrors: x.DecodeErrors, RawFallbacks: x.RawFallbacks,
			LLC: c.LLC.Stats, L4: c.L4.Stats,
			StoreReads: c.Store.Reads, StoreWrites: c.Store.Writes,
			Scheme: c.SchemeRatio(), Wire: *c.WireLink(),
		}
		if c.Home != nil {
			gc.Home, gc.Remote = c.Home.Stats, c.Remote.Stats
		}
		res.Chip = nil
		got["memlink/"+name+"/"+v.Name] = golden.HashRun(t, struct {
			Res  *MemLinkResult
			Chip goldenChip
		}{res, gc}, reg, rec)
	}
	for _, v := range golden.Variants {
		memlink("default", v, func(*MemLinkConfig) {})
		memlink("silent", v, func(c *MemLinkConfig) { c.Chip.SilentEvictions = true })
		memlink("tagptr", v, func(c *MemLinkConfig) { c.Chip.TagPointers = true })
	}
	memlink("bdi", golden.Variants[0], func(c *MemLinkConfig) {
		c.Chip.Scheme = "bdi"
	})

	for _, v := range golden.Variants {
		for _, pooled := range []bool{false, true} {
			reg := obs.NewRegistry()
			rec := obs.NewRecorder(obs.FlightConfig{Window: 512})
			cfg := DefaultMultiChipConfig("dealII")
			cfg.Accesses = 12000
			cfg.LLCBytes = 64 << 10
			cfg.PooledWMT = pooled
			cfg.Fault, cfg.Verify = v.Fault, v.Verify
			cfg.Cable.Metrics, cfg.Recorder = reg, rec
			res, err := RunMultiChip(cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := "multichip/default/"
			if pooled {
				name = "multichip/pooled/"
			}
			got[name+v.Name] = golden.HashRun(t, res, reg, rec)
		}

		reg := obs.NewRegistry()
		rec := obs.NewRecorder(obs.FlightConfig{Window: 512})
		cfg := DefaultNonInclusiveConfig("dealII")
		cfg.Accesses = 12000
		cfg.RemoteBytes, cfg.HomeBytes = 64<<10, 128<<10
		cfg.Fault, cfg.Verify = v.Fault, v.Verify
		cfg.Cable.Metrics, cfg.Recorder = reg, rec
		res, err := RunNonInclusive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got["noninclusive/"+v.Name] = golden.HashRun(t, res, reg, rec)
	}

	golden.Check(t, "testdata/golden.json", got)
}
