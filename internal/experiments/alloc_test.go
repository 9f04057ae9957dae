package experiments

import (
	"runtime"
	"testing"

	"cable/internal/obs"
	"cable/internal/sim"
)

// TestCellAllocBudgets pins what one simulated transfer allocates in
// the two cell shapes the paper report is made of, at the exact
// quick-scale configurations the drivers run: a Fig 12 memory-link cell
// with the six baseline meters attached, and a Fig 17 timing cell whose
// scheme is the gzip meter. The meters allocate nothing per transfer;
// what is measured (~2.0 and ~2.1 per transfer) is the line copies of
// core.(*EvictionBuffer).Add and cache.(*Cache).Invalidate/InsertAt plus
// per-cell construction spread over the cell's transfers. Each budget
// is ~1.5× that, and below what one more allocation per compressing
// meter per transfer (5 and 1) would read — a baseline engine falling
// off its scratch path fails here.
func TestCellAllocBudgets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		meters uint64
		budget float64
		run    func(reg *obs.Registry) error
	}{
		{"fig12", 6, 3.0, func(reg *obs.Registry) error {
			cfg := memLinkCfg(quick, "dealII")
			cfg.Metrics = reg
			_, err := sim.RunMemoryLink(cfg)
			return err
		}},
		{"fig17", 1, 2.9, func(reg *obs.Registry) error {
			cfg := singleThreadCfg(quick, "gzip", "omnetpp")
			cfg.Metrics = reg
			_, err := sim.RunTiming(cfg)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			const runs = 3
			avg := testing.AllocsPerRun(runs, func() {
				if err := tc.run(reg); err != nil {
					t.Fatal(err)
				}
			})
			// AllocsPerRun runs once more to warm up.
			transfers := float64(reg.Counter("sim.meter_transfers").Value()) / float64(tc.meters) / (runs + 1)
			per := avg / transfers
			t.Logf("%.0f allocs over %.0f transfers: %.3f per transfer", avg, transfers, per)
			if transfers == 0 || per > tc.budget {
				t.Fatalf("%.3f allocations per transfer; budget is %.2f", per, tc.budget)
			}
		})
	}
}

// TestTab3BuildsNoCache pins Table III as arithmetic on geometries: its
// three hash tables and two way-map tables are ~9 MB. Building the three
// paper-sized caches (8, 16 and 8 MB of lines) as well is ~70 MB live
// for one call, which alone sets the peak resident set of a report run
// and makes it depend on where a GC cycle falls.
func TestTab3BuildsNoCache(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Tab3(quick); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 16 {
		t.Fatalf("Tab3 allocated %.1f MB; its tables are ~9 MB", mb)
	} else {
		t.Logf("Tab3 allocated %.1f MB", mb)
	}
}
