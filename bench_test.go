package cable_test

// Benchmark harness: one testing.B target per table/figure of the
// paper's evaluation (§VI). Each bench runs the corresponding
// experiment driver at reduced scale and reports the headline metric of
// that figure via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature. cmd/cablereport runs
// the same drivers at full scale.

import (
	"runtime"
	"testing"

	"cable"
	"cable/internal/sim"
)

// runExperiment executes an experiment once per benchmark iteration and
// reports metric(result) under the given unit.
func runExperiment(b *testing.B, id string, metric func(*cable.ExperimentResult) float64, unit string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := cable.RunExperiment(id, cable.ExperimentOptions{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		last = metric(res)
	}
	b.ReportMetric(last, unit)
	b.ReportMetric(0, "ns/op") // wall time is not the result here
}

func BenchmarkFig03DictionarySize(b *testing.B) {
	runExperiment(b, "fig3", func(r *cable.ExperimentResult) float64 {
		rows := r.Table.Rows()
		return r.Table.Get(rows[len(rows)-1], "ideal") / r.Table.Get(rows[0], "ideal")
	}, "ideal-growth-x")
}

func BenchmarkFig11RelativeCompression(b *testing.B) {
	runExperiment(b, "fig11", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("mean", "cable")
	}, "cable-vs-cpack-x")
}

func BenchmarkFig12RawCompression(b *testing.B) {
	runExperiment(b, "fig12", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("mean", "cable")
	}, "cable-ratio-x")
}

func BenchmarkFig13Coherence(b *testing.B) {
	runExperiment(b, "fig13", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("mean", "cable")
	}, "cable-ratio-x")
}

func BenchmarkFig14aThroughput(b *testing.B) {
	runExperiment(b, "fig14a", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("mean", "cable")
	}, "cable-speedup-x")
}

func BenchmarkFig14bThreadSweep(b *testing.B) {
	runExperiment(b, "fig14b", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("2048 threads", "cable")
	}, "speedup-at-2048-x")
}

func BenchmarkFig15Cooperative(b *testing.B) {
	runExperiment(b, "fig15", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("mean", "cable-multi4") / r.Table.Get("mean", "cable-single")
	}, "cable-multi4-gain-x")
}

func BenchmarkFig16Destructive(b *testing.B) {
	runExperiment(b, "fig16", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("mean", "gzip")
	}, "gzip-pollution-rel")
}

func BenchmarkFig17LatencyOverhead(b *testing.B) {
	runExperiment(b, "fig17", func(r *cable.ExperimentResult) float64 {
		return 100 * r.Table.Get("mean", "cable")
	}, "cable-loss-pct")
}

func BenchmarkFig18Energy(b *testing.B) {
	runExperiment(b, "fig18", func(r *cable.ExperimentResult) float64 {
		return 100 * (1 - r.Table.Get("mean", "cable-total"))
	}, "energy-saved-pct")
}

func BenchmarkFig19aCacheSize(b *testing.B) {
	runExperiment(b, "fig19a", func(r *cable.ExperimentResult) float64 {
		rows := r.Table.Rows()
		return r.Table.Get(rows[len(rows)-1], "cable")
	}, "cable-at-max-llc-x")
}

func BenchmarkFig19bL4Ratio(b *testing.B) {
	runExperiment(b, "fig19b", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("1:8", "cable") / r.Table.Get("1:2", "cable")
	}, "l4-ratio-sensitivity")
}

func BenchmarkFig20Engines(b *testing.B) {
	runExperiment(b, "fig20", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("mean", "oracle")
	}, "oracle-ratio-x")
}

func BenchmarkFig21HashTableSize(b *testing.B) {
	runExperiment(b, "fig21", func(r *cable.ExperimentResult) float64 {
		rows := r.Table.Rows()
		return r.Table.Get(rows[len(rows)-1], "relative")
	}, "smallest-table-rel")
}

func BenchmarkFig22AccessCount(b *testing.B) {
	runExperiment(b, "fig22", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("1", "relative")
	}, "one-access-rel")
}

func BenchmarkFig23LinkWidth(b *testing.B) {
	runExperiment(b, "fig23", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("64-bit-packed", "cable") / r.Table.Get("64-bit", "cable")
	}, "packed-recovery-x")
}

func BenchmarkTab03Area(b *testing.B) {
	runExperiment(b, "tab3", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("off-chip buffer", "hash-table-%")
	}, "buffer-ht-pct")
}

func BenchmarkTogglesReduction(b *testing.B) {
	runExperiment(b, "toggles", func(r *cable.ExperimentResult) float64 {
		return 100 * r.Table.Get("mean", "cable")
	}, "toggle-reduction-pct")
}

func BenchmarkHeadline(b *testing.B) {
	runExperiment(b, "headline", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("cable vs cpack", "value")
	}, "cable-vs-cpack-x")
}

func BenchmarkOnOffControl(b *testing.B) {
	runExperiment(b, "onoff", func(r *cable.ExperimentResult) float64 {
		return 100 * r.Table.Get("mean", "adaptive-loss")
	}, "adaptive-loss-pct")
}

// benchRunAll drives the experiment runner over a fixed two-experiment
// workload (one sweep-heavy, one cheap) at the given pool size, so
// serial and parallel wall-clock are directly comparable with
// benchstat: go test -bench 'BenchmarkRunAll' -count 10.
func benchRunAll(b *testing.B, parallelism int) {
	ids := []string{"fig21", "tab3"}
	opt := cable.ExperimentOptions{Quick: true, Parallelism: parallelism}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cable.RunExperiments(ids, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B) { benchRunAll(b, 1) }

func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, runtime.GOMAXPROCS(0)) }

// BenchmarkMeshSoak is the topology engine's throughput benchmark: one
// op is a full fault-injected 16-chip mesh run (schedule, parallel
// per-link encode, replay) at 50k transfers. MB/s is the simulated source data pushed
// through the per-link CABLE pipelines per wall-clock second.
func BenchmarkMeshSoak(b *testing.B) {
	cfg := cable.DefaultTopologyConfig("dealII")
	cfg.Transfers = 50000
	cfg.Verify = false
	cfg.Fault = cable.FaultConfig{BitRate: 1e-3, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var transfers uint64
	for i := 0; i < b.N; i++ {
		res, err := cable.RunTopology(cfg)
		if err != nil {
			b.Fatal(err)
		}
		transfers += res.LinkTransfers
	}
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(transfers)/secs, "transfers/s")
		b.ReportMetric(float64(transfers)*64/1e6/secs, "MB/s")
	}
}

// --- micro-benchmarks of the hot paths ---

// warmChip builds a memory-link chip and drives it to steady state, so
// the encode-path benchmarks below measure warm-structure behavior.
// It takes testing.TB so the alloc-guard test shares the setup.
func warmChip(tb testing.TB) (*sim.Chip, []uint64) {
	tb.Helper()
	cfg := cable.DefaultMemoryLinkConfig("dealII")
	cfg.AccessesPerProgram = 4000
	cfg.WithMeters = false
	cfg.Chip.LLCBytes = 256 << 10
	cfg.Chip.L4Bytes = 1 << 20
	res, err := cable.RunMemoryLink(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	chip := res.Chip
	var addrs []uint64
	for idx := 0; idx < chip.L4.NumSets(); idx++ {
		for way := 0; way < chip.L4.Config().Ways; way++ {
			if addr, ok := chip.L4.LineAddrOf(cable.LineID{Index: idx, Way: way}); ok {
				addrs = append(addrs, addr)
			}
		}
	}
	if len(addrs) == 0 {
		tb.Fatal("warm chip has empty L4")
	}
	return chip, addrs
}

// benchFillStream precomputes the fill request stream both encode
// benchmarks consume, so they measure API cost over the same work: a
// power-of-two-length cycle of resident addresses with rotating
// replacement ways. The per-line caller pulls one request at a time;
// the batch caller hands over 32-request windows — exactly the call
// shapes the two APIs impose on a runner draining a fill queue.
func benchFillStream(addrs []uint64, ways int) []cable.BatchFill {
	const n = 4096 // power of two: the cycle index reduces to a mask
	reqs := make([]cable.BatchFill, n)
	for i := range reqs {
		reqs[i] = cable.BatchFill{LineAddr: addrs[i%len(addrs)], State: cable.Shared, ReplWay: i % ways}
	}
	return reqs
}

// BenchmarkEncodeFill measures the per-line encode hot path on a warm
// home end: standalone compression, signature search, candidate
// ranking, DIFF compression and hash-table/WMT synchronization. The
// encode path is allocation-free in steady state (0 allocs/op).
func BenchmarkEncodeFill(b *testing.B) {
	chip, addrs := warmChip(b)
	reqs := benchFillStream(addrs, chip.LLC.Config().Ways)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq := &reqs[i&(len(reqs)-1)]
		if _, _, err := chip.Home.EncodeFill(rq.LineAddr, rq.State, rq.ReplWay); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBatch measures the batched encode API at batch size
// 32 on the same warm chip and request stream as BenchmarkEncodeFill;
// divide ns/op by 32 for the per-line figure the README's efficiency
// table quotes. The batch path amortizes metric publication, probing
// and capability checks across the batch and must stay at 0 allocs/op.
func BenchmarkEncodeBatch(b *testing.B) {
	chip, addrs := warmChip(b)
	reqs := benchFillStream(addrs, chip.LLC.Config().Ways)
	const batch = 32
	b.SetBytes(batch * 64)
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for i := 0; i < b.N; i++ {
		if err := chip.Home.EncodeFills(reqs[off:off+batch], nil); err != nil {
			b.Fatal(err)
		}
		off = (off + batch) & (len(reqs) - 1)
	}
}

// BenchmarkDecodeFill measures one encode→decode round trip plus the
// remote-side install bookkeeping that keeps the WMT truthful
// (references resolved from the remote data array, DIFF expanded by
// the engine).
func BenchmarkDecodeFill(b *testing.B) {
	chip, addrs := warmChip(b)
	ways := chip.LLC.Config().Ways
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := addrs[i%len(addrs)]
		way := i % ways
		p, _, err := chip.Home.EncodeFill(addr, cable.Shared, way)
		if err != nil {
			b.Fatal(err)
		}
		data, err := chip.Remote.DecodeFill(p)
		if err != nil {
			b.Fatal(err)
		}
		id := cable.LineID{Index: chip.LLC.IndexOf(addr), Way: way}
		chip.LLC.InsertAt(addr, data, cable.Shared, way)
		chip.Remote.OnFillInstalled(id, data, cable.Shared)
	}
}

// BenchmarkMemLinkProtocol is the former end-to-end form of
// BenchmarkEncodeFill: whole-protocol throughput on a warm chip,
// including every meter-free simulator layer.
func BenchmarkMemLinkProtocol(b *testing.B) {
	cfg := cable.DefaultMemoryLinkConfig("dealII")
	cfg.AccessesPerProgram = 2000
	cfg.WithMeters = false
	cfg.Chip.LLCBytes = 256 << 10
	cfg.Chip.L4Bytes = 1 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cable.RunMemoryLink(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineCompress(b *testing.B) {
	line := make([]byte, 64)
	ref := make([]byte, 64)
	for i := range line {
		line[i] = byte(i * 31)
		ref[i] = byte(i * 31)
	}
	ref[5] ^= 0xFF
	refs := [][]byte{ref}
	for _, name := range []string{"bdi", "cpack", "lbe", "oracle"} {
		e, err := cable.NewEngine(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(64)
			for i := 0; i < b.N; i++ {
				e.Compress(line, refs)
			}
		})
	}
}

func BenchmarkAblation(b *testing.B) {
	runExperiment(b, "ablation", func(r *cable.ExperimentResult) float64 {
		return r.Table.Get("baseline (17b LIDs, depth 2, 2 sigs)", "ratio") /
			r.Table.Get("40b tag pointers (no WMT)", "ratio")
	}, "wmt-pointer-gain-x")
}
