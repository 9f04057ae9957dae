package topo

import (
	"testing"

	"cable/internal/golden"
	"cable/internal/obs"
	"cable/internal/workload/spec"
)

// TestGoldenTopology pins Run on every shape — clean, fault-injected
// and unverified — bit for bit against hashes recorded at the commit
// before the engine's link pipeline moved onto sim.Pair: every result
// field, the private registry's deterministic snapshot and the flight
// recorder's windows and timeline (see golden.Check for regenerating).
//
// Two mesh rows pin the event schedules the shape rows do not reach:
// "mesh-spec" injects at the example mix's own emission times, whose
// bursty gaps run hundreds of cycles ahead, and "mesh-narrow" drives a
// 2-bit link, on which one raw transfer holds the wire for 272 cycles.
func TestGoldenTopology(t *testing.T) {
	mix, err := spec.Load("../../examples/workloads/bursty-mix.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Config{}
	for _, shape := range []string{ShapeRing, ShapeMesh, ShapeStar} {
		cfg := DefaultConfig("dealII")
		cfg.Shape, cfg.Chips, cfg.Transfers = shape, 6, 12000
		cfg.HomeBytes, cfg.RemoteBytes = 64<<10, 16<<10
		rows[shape] = cfg
	}
	specCfg := rows[ShapeMesh]
	specCfg.Benchmark, specCfg.Workload = "", mix
	rows["mesh-spec"] = specCfg
	narrow := rows[ShapeMesh]
	narrow.Link.WidthBits = 2
	rows["mesh-narrow"] = narrow

	got := map[string]string{}
	for name, cfg := range rows {
		for _, v := range golden.Variants {
			reg := obs.NewRegistry()
			rec := obs.NewRecorder(obs.FlightConfig{Window: 512})
			cfg.Fault, cfg.Verify = v.Fault, v.Verify
			cfg.Metrics, cfg.Recorder = reg, rec
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v.Name, err)
			}
			got[name+"/"+v.Name] = golden.HashRun(t, res, reg, rec)
		}
	}

	golden.Check(t, "testdata/golden.json", got)
}
