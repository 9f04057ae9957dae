package topo

import (
	"testing"

	"cable/internal/golden"
	"cable/internal/obs"
)

// TestGoldenTopology pins Run on every shape — clean, fault-injected
// and unverified — bit for bit against hashes recorded at the commit
// before the engine's link pipeline moved onto sim.Pair: every result
// field, the private registry's deterministic snapshot and the flight
// recorder's windows and timeline (see golden.Check for regenerating).
func TestGoldenTopology(t *testing.T) {
	got := map[string]string{}
	for _, shape := range []string{ShapeRing, ShapeMesh, ShapeStar} {
		for _, v := range golden.Variants {
			reg := obs.NewRegistry()
			rec := obs.NewRecorder(obs.FlightConfig{Window: 512})
			cfg := DefaultConfig("dealII")
			cfg.Shape, cfg.Chips, cfg.Transfers = shape, 6, 12000
			cfg.HomeBytes, cfg.RemoteBytes = 64<<10, 16<<10
			cfg.Fault, cfg.Verify = v.Fault, v.Verify
			cfg.Metrics, cfg.Recorder = reg, rec
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", shape, v.Name, err)
			}
			got[shape+"/"+v.Name] = golden.HashRun(t, res, reg, rec)
		}
	}

	golden.Check(t, "testdata/golden.json", got)
}
