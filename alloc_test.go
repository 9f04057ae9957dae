package cable_test

import (
	"testing"

	"cable"
	"cable/internal/link"
	"cable/internal/obs"
	"cable/internal/sim"
	"cable/internal/workload"
)

// TestEncodeFillAllocs pins the steady-state encode path at zero
// allocations per line — with the metrics registry enabled, since the
// counters are always on. BenchmarkEncodeFill reports the same number,
// but a -benchmem reading is advisory; this test makes regressions
// fail `go test ./...`.
func TestEncodeFillAllocs(t *testing.T) {
	chip, addrs := warmChip(t)
	ways := chip.LLC.Config().Ways
	// A few warm-up rounds first: lazily grown scratch buffers (ranker
	// slices, compressor dictionaries) are allowed to size themselves
	// before the measured window.
	var i int
	encodeSome := func() {
		for n := 0; n < 256; n++ {
			addr := addrs[i%len(addrs)]
			if _, _, err := chip.Home.EncodeFill(addr, cable.Shared, i%ways); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	encodeSome()
	if avg := testing.AllocsPerRun(8, encodeSome); avg != 0 {
		t.Fatalf("EncodeFill allocated %.2f times per 256 lines; the hot path must stay allocation-free", avg)
	}
}

// TestDefaultMetersAllocs pins the measurement side of the simulators
// at zero allocations per transfer: the six Fig 12 baseline meters
// (none, BDI, CPACK, CPACK128, LBE256, gzip) compress into their own
// scratch and count toggles off the image in place. The warm-up is two
// gzip windows of fills and of write-backs, which is when the LZSS
// history of each direction reaches its full size and trims.
func TestDefaultMetersAllocs(t *testing.T) {
	meters := sim.DefaultMetersIn(link.DefaultConfig(), obs.NewRegistry())
	g, err := workload.New("dealII", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, 1100)
	for i := range lines {
		lines[i] = append([]byte(nil), g.LineData(g.Next().LineAddr)...)
	}
	transfer := func() {
		for i, line := range lines {
			for _, m := range meters {
				m.OnFill(line, 0)
				m.OnWriteback(lines[len(lines)-1-i], 1)
			}
		}
	}
	transfer()
	if avg := testing.AllocsPerRun(4, transfer); avg != 0 {
		t.Fatalf("the default meters allocated %.2f times per %d fills and write-backs; they must stay allocation-free", avg, len(lines))
	}
}

// TestRunMemoryLinkAllocBudget pins the whole-simulation allocation
// count, BenchmarkMemLinkProtocol's configuration measured as a hard
// test. The budget is the issue's target (20% of the 37,455 allocs/op
// baseline before the scratch-reuse work); the measured value is ~350,
// so the margin absorbs noise without ever letting a per-line
// allocation (≥2000 allocs here) sneak back into a hot path. The
// faulted case covers the guarded half of sim.LinkTransfer — CRC
// marshal, injector, scratch unmarshal, raw resend — which the
// hand-written drivers share and a clean run never enters: ~340
// measured, within a dozen of the clean run, because a rejected frame
// returns the bare core.ErrCRCMismatch. Its budget sits below what one
// allocation per rejected frame (~220 faults in ~1860 transfers) would
// cost.
func TestRunMemoryLinkAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fault  cable.FaultConfig
		budget float64
	}{
		{"clean", cable.FaultConfig{}, 7492},
		{"faulted", cable.FaultConfig{BitRate: 1e-3, Seed: 1}, 450},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cable.DefaultMemoryLinkConfig("dealII")
			cfg.AccessesPerProgram = 2000
			cfg.WithMeters = false
			cfg.Chip.LLCBytes = 256 << 10
			cfg.Chip.L4Bytes = 1 << 20
			cfg.Chip.Fault = tc.fault
			cfg.Chip.Verify = !tc.fault.Enabled()
			avg := testing.AllocsPerRun(5, func() {
				if _, err := cable.RunMemoryLink(cfg); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocs/run", avg)
			if avg > tc.budget {
				t.Fatalf("RunMemoryLink allocated %.0f times per run; budget is %.0f", avg, tc.budget)
			}
		})
	}
}

// TestRunMultiChipAllocBudget pins the coherence simulation's
// allocation count after the directory-state recycling work: the
// write-version map is pooled, caches and CABLE ends release their
// backings, and every marshal goes through the run's scratch writer.
// Measured ~2.4k allocs/run at this configuration (down from ~10k when
// each transfer marshaled into a fresh buffer); the budget leaves room
// for noise while catching any per-access allocation (≥5000 here)
// creeping back.
func TestRunMultiChipAllocBudget(t *testing.T) {
	const budget = 4000
	cfg := cable.DefaultMultiChipConfig("dealII")
	cfg.Accesses = 5000
	cfg.WithMeters = false
	cfg.LLCBytes = 256 << 10
	avg := testing.AllocsPerRun(5, func() {
		if _, err := cable.RunMultiChip(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("RunMultiChip allocated %.0f times per run; budget is %d", avg, budget)
	}
}

// TestRunNonInclusiveAllocBudget pins the non-inclusive Home Agent
// simulation the same way: its write-version map is pooled, both cache
// backings and CABLE-end tables are released at run end, and every
// marshal rides the run's scratch writer. Measured ~2.0k allocs/run at
// this configuration; the budget leaves room for noise while catching
// any per-access allocation (≥5000 here) creeping back.
func TestRunNonInclusiveAllocBudget(t *testing.T) {
	const budget = 3500
	cfg := cable.DefaultNonInclusiveConfig("dealII")
	cfg.Accesses = 5000
	cfg.RemoteBytes = 256 << 10
	cfg.HomeBytes = 512 << 10
	avg := testing.AllocsPerRun(5, func() {
		if _, err := cable.RunNonInclusive(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("RunNonInclusive allocated %.0f times per run; budget is %d", avg, budget)
	}
}

// TestRunTopologyAllocBudget pins the topology engine's allocations per
// link transfer on BenchmarkMeshSoak's configuration. The typed event
// heap took it from ~14.6 (two boxed events per queue operation) to
// ~2.3, sending through sim.LinkTransfer (scratch unmarshal) to ~0.7,
// and a failed guard returning the bare core.ErrCRCMismatch instead of
// a formatted error to 0.20; what remains is per-link state and slice
// growth. The race detector reads 0.57 (under it sync.Pool drops a
// quarter of its Puts, so pooled link state is rebuilt more often), and
// the budget is that plus headroom: one allocation per transfer (or per
// event) coming back reads 1.2 and more.
func TestRunTopologyAllocBudget(t *testing.T) {
	const budget = 0.7
	cfg := cable.DefaultTopologyConfig("dealII")
	cfg.Transfers = 50000
	cfg.Verify = false
	cfg.Fault = cable.FaultConfig{BitRate: 1e-3, Seed: 1}
	var transfers uint64
	avg := testing.AllocsPerRun(3, func() {
		res, err := cable.RunTopology(cfg)
		if err != nil {
			t.Fatal(err)
		}
		transfers = res.LinkTransfers
	})
	per := avg / float64(transfers)
	t.Logf("%.2f allocs/transfer", per)
	if per > budget {
		t.Fatalf("RunTopology allocated %.2f times per transfer (%.0f over %d); budget is %.1f",
			per, avg, transfers, budget)
	}
}
