package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cable/internal/obs"
)

// TestCellAllocBudgets pins what one simulated transfer allocates, in
// count and in bytes, in the two cell shapes the paper report is made
// of, at the exact quick-scale configurations the drivers run and
// through the descriptors the cell runner calls (so the chip's tables
// and cache backings are released for the next cell): a Fig 12
// memory-link cell with the six baseline meters attached, and a Fig 17
// timing cell whose scheme is the gzip meter. Neither the meters nor the
// protocol steps allocate per transfer (TestDefaultMetersAllocs,
// TestPairStepAllocs); what is measured (0.037 and 0.017 allocations,
// 52.2 and 19.6 bytes per transfer) is per-cell construction spread over
// the cell's transfers. Each budget is that plus ~10 % (the allocation
// counts on the race detector's 0.040 and 0.020: its sync.Pool drops a
// quarter of what is put back). One line copy per eviction again (the ~2 a transfer before the eviction buffer's
// ring and the cache's aliasing Invalidate) or a baseline engine falling
// off its scratch path fails here, and so does a per-generator line
// cache (2.25 MiB a cell) or an un-recycled cache backing, backing
// store or gzip window.
//
// The first run of each case follows two GCs, which empty every
// sync.Pool: the gap between its bytes and the warm runs' (which run
// with the collector off, so their pools stay warm) is what the pools
// of internal/pool save a cell (DESIGN.md "Memoization").
func TestCellAllocBudgets(t *testing.T) {
	for _, tc := range []struct {
		name        string
		meters      uint64
		budget      float64
		bytesBudget float64
		run         func(reg *obs.Registry) error
	}{
		{"fig12", 6, 0.044, 58, func(reg *obs.Registry) error {
			_, err := memLinkCell.run(memLinkCfg(quick, "dealII"), reg, nil)
			return err
		}},
		{"fig17", 1, 0.022, 21.7, func(reg *obs.Registry) error {
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
			// No GC between the warm runs: two cycles landing inside
			// them would empty the pools again and bill one cold run's
			// backings to the warm average.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
			t.Logf("%.0f transfers a cell: %.3f allocs and %.1f B per transfer (%.2f MB a cell; %.2f MB with the pools cold)",
				transfers, allocs/transfers, bytes/transfers, bytes/(1<<20), coldBytes/(1<<20))
			if per := allocs / transfers; per > tc.budget {
				t.Errorf("%.3f allocations per transfer; budget is %.3f", per, tc.budget)
			}
			if per := bytes / transfers; per > tc.bytesBudget && !raceEnabled {
				t.Errorf("%.1f bytes allocated per transfer; budget is %.2f", per, tc.bytesBudget)
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
