package experiments

import (
	"testing"

	"cable/internal/fault"
	"cable/internal/obs"
	"cable/internal/sim"
)

// TestEvictionBufferNeverRescues counts the §IV-A eviction buffer over
// one quick cell of every driver, clean and at BitRate 1e-3 (ROADMAP
// 4(a)). Every driver runs sim.Pair's two-ended steps synchronously —
// Fill ends in Remote.OnAck — so no fill is decoded against an eviction
// its home had not yet acknowledged: remote.evict_rescues is 0
// everywhere, while the explicit-notice drivers fill the buffer
// (remote.evict_buffered > 0) that nothing reads, and the silent one
// buffers nothing. Only internal/core's TestOutOfOrderEvictionRace and
// TestRaceWithRefill reach EvictionBuffer.Resolve's hit branch.
func TestEvictionBufferNeverRescues(t *testing.T) {
	memlink := func(mutate func(*sim.MemLinkConfig)) func(*obs.Registry, fault.Config) error {
		return func(reg *obs.Registry, f fault.Config) error {
			cfg := memLinkCfg(quick, "dealII")
			cfg.Chip.Fault = f
			mutate(&cfg)
			_, err := memLinkCell.run(cfg, reg, nil)
			return err
		}
	}
	multichip := func(pooled bool) func(*obs.Registry, fault.Config) error {
		return func(reg *obs.Registry, f fault.Config) error {
			cfg := sim.DefaultMultiChipConfig("dealII")
			cfg.Accesses, cfg.LLCBytes, cfg.PooledWMT = accesses(quick), 128<<10, pooled
			cfg.Cable.Metrics, cfg.Fault = reg, f
			_, err := sim.RunMultiChip(cfg)
			return err
		}
	}
	drivers := []struct {
		name     string
		explicit bool // eviction notices, hence a buffer to fill
		run      func(*obs.Registry, fault.Config) error
	}{
		{"memlink/explicit", true, memlink(func(*sim.MemLinkConfig) {})},
		{"memlink/silent", false, memlink(func(c *sim.MemLinkConfig) { c.Chip.SilentEvictions = true })},
		{"memlink/tagptr", true, memlink(func(c *sim.MemLinkConfig) { c.Chip.TagPointers = true })},
		{"multichip/default", true, multichip(false)},
		{"multichip/pooled", true, multichip(true)},
		{"noninclusive", true, func(reg *obs.Registry, f fault.Config) error {
			cfg := sim.DefaultNonInclusiveConfig("dealII")
			cfg.Accesses, cfg.RemoteBytes, cfg.HomeBytes = accesses(quick), 128<<10, 512<<10
			cfg.Cable.Metrics, cfg.Fault = reg, f
			_, err := sim.RunNonInclusive(cfg)
			return err
		}},
		{"timing/cable", true, func(reg *obs.Registry, f fault.Config) error {
			cfg := singleThreadCfg(quick, "cable", "omnetpp")
			cfg.Fault = f
			_, err := timingCell.run(cfg, reg, nil)
			return err
		}},
		{"topo/mesh", true, func(reg *obs.Registry, f fault.Config) error {
			cfg := meshConfig(quick, "dealII")
			cfg.Fault = f
			_, err := topoCell.run(cfg, reg, nil)
			return err
		}},
	}
	for _, v := range []struct {
		name  string
		fault fault.Config
	}{{"clean", fault.Config{}}, {"fault", fault.Config{BitRate: 1e-3, Seed: 7}}} {
		for _, d := range drivers {
			reg := obs.NewRegistry()
			if err := d.run(reg, v.fault); err != nil {
				t.Fatalf("%s/%s: %v", d.name, v.name, err)
			}
			buffered, rescues := reg.Counter("remote.evict_buffered").Value(), reg.Counter("remote.evict_rescues").Value()
			t.Logf("%s/%s: %d buffered, %d rescued", d.name, v.name, buffered, rescues)
			if rescues != 0 || (buffered > 0) != d.explicit {
				t.Errorf("%s/%s: %d evictions buffered, %d rescued; want 0 rescued and buffered > 0 exactly with notices",
					d.name, v.name, buffered, rescues)
			}
		}
	}
}
