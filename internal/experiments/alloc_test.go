package experiments

import (
	"runtime"
	"testing"

	"cable/internal/obs"
)

// TestCellAllocBudgets pins what one simulated transfer allocates, in
// count and in bytes, in the two cell shapes the paper report is made
// of, at the exact quick-scale configurations the drivers run and
// through the descriptors the cell runner calls (so the chip's tables
// and cache backings are released for the next cell): a Fig 12
// memory-link cell with the six baseline meters attached, and a Fig 17
// timing cell whose scheme is the gzip meter. The meters allocate
// nothing per transfer; what is measured (~2.0 and ~2.1 allocations,
// ~356 and ~345 bytes per transfer) is the line copies of
// core.(*EvictionBuffer).Add and cache.(*Cache).Invalidate/InsertAt plus
// per-cell construction spread over the cell's transfers. Each count
// budget is ~1.5× that, and below what one more allocation per
// compressing meter per transfer (5 and 1) would read — a baseline
// engine falling off its scratch path fails here. The byte budgets sit
// below what a per-generator line cache (2.25 MiB a cell, 537 and 370
// bytes per transfer) or an un-recycled cache backing would read.
//
// The first run of each case follows two GCs, which empty every
// sync.Pool: the gap between its bytes and the warm runs' is what the
// cache-backing and core-table pools save a cell (DESIGN.md
// "Memoization").
func TestCellAllocBudgets(t *testing.T) {
	for _, tc := range []struct {
		name        string
		meters      uint64
		budget      float64
		bytesBudget float64
		run         func(reg *obs.Registry) error
	}{
		{"fig12", 6, 3.0, 430, func(reg *obs.Registry) error {
			_, err := memLinkCell.run(memLinkCfg(quick, "dealII"), reg, nil)
			return err
		}},
		{"fig17", 1, 2.9, 400, func(reg *obs.Registry) error {
			_, err := timingCell.run(singleThreadCfg(quick, "gzip", "omnetpp"), reg, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			run := func() (float64, float64) {
				return allocated(func() {
					if err := tc.run(reg); err != nil {
						t.Fatal(err)
					}
				})
			}
			runtime.GC()
			runtime.GC()
			_, coldBytes := run()
			const runs = 3
			var allocs, bytes float64
			for i := 0; i < runs; i++ {
				a, b := run()
				allocs, bytes = allocs+a/runs, bytes+b/runs
			}
			transfers := float64(reg.Counter("sim.meter_transfers").Value()) / float64(tc.meters) / (runs + 1)
			if transfers == 0 {
				t.Fatal("the cell metered no transfers")
			}
			t.Logf("%.0f transfers a cell: %.3f allocs and %.0f B per transfer (%.2f MB a cell; %.2f MB with the pools cold)",
				transfers, allocs/transfers, bytes/transfers, bytes/(1<<20), coldBytes/(1<<20))
			if per := allocs / transfers; per > tc.budget {
				t.Errorf("%.3f allocations per transfer; budget is %.2f", per, tc.budget)
			}
			if per := bytes / transfers; per > tc.bytesBudget && !raceEnabled {
				t.Errorf("%.0f bytes allocated per transfer; budget is %.0f", per, tc.bytesBudget)
			}
		})
	}
}

// allocated runs f and returns how many allocations it made and their
// total size in bytes.
func allocated(f func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// TestTab3BuildsNoCache pins Table III as arithmetic on geometries: its
// three hash tables and two way-map tables are ~9 MB. Building the three
// paper-sized caches (8, 16 and 8 MB of lines) as well is ~70 MB live
// for one call, which alone sets the peak resident set of a report run
// and makes it depend on where a GC cycle falls.
func TestTab3BuildsNoCache(t *testing.T) {
	_, bytes := allocated(func() {
		if _, err := Tab3(quick); err != nil {
			t.Fatal(err)
		}
	})
	if mb := bytes / (1 << 20); mb > 16 {
		t.Fatalf("Tab3 allocated %.1f MB; its tables are ~9 MB", mb)
	} else {
		t.Logf("Tab3 allocated %.1f MB", mb)
	}
}
