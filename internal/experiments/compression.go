package experiments

import (
	"fmt"

	"cable/internal/compress"
	"cable/internal/sim"
	"cable/internal/stats"
	"cable/internal/workload"
)

// memLinkSchemes are the Fig 11/12 comparison columns.
var memLinkSchemes = []string{"bdi", "cpack", "cpack128", "lbe256", "gzip", "cable"}

func memLinkCfg(opt Options, benchmarks ...string) sim.MemLinkConfig {
	cfg := sim.DefaultMemLinkConfig(benchmarks...)
	cfg.AccessesPerProgram = accesses(opt)
	if opt.Quick {
		cfg.Chip.LLCBytes = 128 << 10
		cfg.Chip.L4Bytes = 512 << 10
	}
	return cfg
}

// runPerBenchmark runs the memory-link sim once per benchmark —
// benchmarks fan out across the cell worker pool — and returns each
// benchmark's scheme ratios, in names order.
func runPerBenchmark(opt Options, names []string) ([]map[string]float64, error) {
	return cells(opt, len(names), func(i int) (map[string]float64, error) {
		res, err := runMemLink(opt, memLinkCfg(opt, names[i]))
		if err != nil {
			return nil, err
		}
		row := make(map[string]float64, len(memLinkSchemes))
		for _, s := range memLinkSchemes {
			row[s] = res.Ratio(s)
		}
		return row, nil
	})
}

// Fig3 reproduces the motivation plot: an ideal streaming dictionary
// keeps improving with size, but pointer overhead flattens the curve.
func Fig3(opt Options) (*Result, error) {
	t := stats.NewTable("Fig 3: compression ratio vs dictionary size", "ideal", "ideal+pointer")
	sizes := []int{128, 512, 2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20}
	if opt.Quick {
		sizes = []int{128, 2 << 10, 32 << 10, 512 << 10}
	}
	names := benchSubset(opt, true)
	// One cell per (dictionary size, benchmark): each owns its own
	// generator and stream dictionary, so all cells are independent.
	type fig3Cell struct{ withPtr, noPtr, src uint64 }
	grid, err := cells(opt, len(sizes)*len(names), func(k int) (c fig3Cell, err error) {
		size, name := sizes[k/len(names)], names[k%len(names)]
		g, err := workload.New(name, 0, 0)
		if err != nil {
			return c, err
		}
		cs := compress.NewCPackStream(size)
		// Compress the raw miss-stream contents: Fig 3 is a
		// profiling study over benchmark data, pre-simulation.
		n := accesses(opt) / 4
		for i := 0; i < n; i++ {
			a := g.Next()
			w, np := cs.CompressBits(g.LineData(a.LineAddr))
			c.withPtr += uint64(w)
			c.noPtr += uint64(np)
			c.src += 512
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	for si, size := range sizes {
		var withPtr, noPtr, src uint64
		for ni := range names {
			c := grid[si*len(names)+ni]
			withPtr += c.withPtr
			noPtr += c.noPtr
			src += c.src
		}
		row := fmt.Sprintf("%dB", size)
		if size >= 1<<20 {
			row = fmt.Sprintf("%dMB", size>>20)
		} else if size >= 1<<10 {
			row = fmt.Sprintf("%dKB", size>>10)
		}
		t.Set(row, "ideal", float64(src)/float64(noPtr))
		t.Set(row, "ideal+pointer", float64(src)/float64(withPtr))
	}
	return &Result{ID: "fig3", Table: t, Notes: []string{
		"ideal grows with dictionary size; ideal+pointer stays flat (pointer overhead cancels the gains)",
	}}, nil
}

// Fig12 is the raw off-chip compression comparison; the zero-dominant
// group is listed last, as in the paper.
func Fig12(opt Options) (*Result, error) {
	names := zeroDominantLast(benchSubset(opt, false))
	rows, err := runPerBenchmark(opt, names)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig 12: off-chip link compression (raw ratios)", memLinkSchemes...)
	for i, name := range names {
		for s, v := range rows[i] {
			t.Set(name, s, v)
		}
	}
	t.AddMeanRow("mean")
	return &Result{ID: "fig12", Table: t, Notes: []string{
		"paper: CABLE 8.2x mean vs CPACK 4.5x (82% better); zero-dominant group ≥16x for every scheme",
	}}, nil
}

// Fig11 is Fig 12 normalized to CPACK.
func Fig11(opt Options) (*Result, error) {
	names := zeroDominantLast(benchSubset(opt, false))
	rows, err := runPerBenchmark(opt, names)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig 11: off-chip link compression (normalized to CPACK)", memLinkSchemes...)
	for i, name := range names {
		base := rows[i]["cpack"]
		for s, v := range rows[i] {
			t.Set(name, s, v/base)
		}
	}
	t.AddMeanRow("mean")
	return &Result{ID: "fig11", Table: t, Notes: []string{
		"paper: CABLE ≈1.47x CPACK relative on average (46.9% better per-benchmark mean)",
	}}, nil
}

// Fig13 is the 4-chip coherence-link study.
func Fig13(opt Options) (*Result, error) {
	names := zeroDominantLast(benchSubset(opt, false))
	schemes := []string{"bdi", "cpack", "cpack128", "lbe256", "gzip", "cable"}
	t := stats.NewTable("Fig 13: coherence-link compression, 4-chip CMP", schemes...)
	results, err := cells(opt, len(names), func(i int) (*sim.MultiChipResult, error) {
		cfg := sim.DefaultMultiChipConfig(names[i])
		cfg.Accesses = accesses(opt)
		if opt.Quick {
			cfg.LLCBytes = 128 << 10
		}
		return runMultiChip(opt, cfg)
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		for _, s := range schemes {
			t.Set(name, s, results[i].Ratio(s))
		}
	}
	t.AddMeanRow("mean")
	return &Result{ID: "fig13", Table: t, Notes: []string{
		"paper: CABLE+LBE 10.6x average, 86.4% better than CPACK; dirty transfers lower ratios slightly",
	}}, nil
}

// Fig20 swaps the engine CABLE delegates to.
func Fig20(opt Options) (*Result, error) {
	engines := []string{"cpack128", "gzip-seeded", "lbe", "oracle"}
	t := stats.NewTable("Fig 20: CABLE with different engines", engines...)
	names := sweepSubset(opt)
	ratios, err := cells(opt, len(names)*len(engines), func(k int) (float64, error) {
		cfg := memLinkCfg(opt, names[k/len(engines)])
		cfg.WithMeters = false
		cfg.Chip.Cable.EngineName = engines[k%len(engines)]
		res, err := runMemLink(opt, cfg)
		if err != nil {
			return 0, err
		}
		return res.Ratio("cable"), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		for ei, eng := range engines {
			t.Set(name, eng, ratios[ni*len(engines)+ei])
		}
	}
	t.AddMeanRow("mean")
	return &Result{ID: "fig20", Table: t, Notes: []string{
		"paper ordering: ORACLE > LBE > gzip > CPACK128 (pointer overhead and unaligned patterns matter)",
	}}, nil
}

// Toggles measures wire bit-toggle reduction (§VI-D).
func Toggles(opt Options) (*Result, error) {
	names := benchSubset(opt, false)
	t := stats.NewTable("§VI-D: bit-toggle reduction vs uncompressed", "cpack", "cable")
	results, err := cells(opt, len(names), func(i int) (*sim.MemLinkResult, error) {
		return runMemLink(opt, memLinkCfg(opt, names[i]))
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		res := results[i]
		base := float64(res.Toggles["none"])
		if base == 0 {
			continue
		}
		t.Set(name, "cpack", 1-float64(res.Toggles["cpack"])/base)
		t.Set(name, "cable", 1-float64(res.Toggles["cable"])/base)
	}
	t.AddMeanRow("mean")
	return &Result{ID: "toggles", Table: t, Notes: []string{
		"paper: CABLE reduces toggles by 30.2% on average, 16.9% beyond CPACK",
	}}, nil
}

// Headline aggregates the §VI-B numbers.
func Headline(opt Options) (*Result, error) {
	names := workload.Names()
	if opt.Quick {
		names = benchSubset(opt, false)
	}
	rows, err := runPerBenchmark(opt, names)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Headline (§VI-B)", "value")
	perScheme := map[string][]float64{}
	for _, row := range rows {
		for s, v := range row {
			perScheme[s] = append(perScheme[s], v)
		}
	}
	cable := stats.Mean(perScheme["cable"])
	cpack := stats.Mean(perScheme["cpack"])
	t.Set("cable mean ratio", "value", cable)
	t.Set("cpack mean ratio", "value", cpack)
	t.Set("cable vs cpack", "value", cable/cpack)
	t.Set("gzip mean ratio", "value", stats.Mean(perScheme["gzip"]))
	t.Set("lbe256 mean ratio", "value", stats.Mean(perScheme["lbe256"]))
	t.Set("bdi mean ratio", "value", stats.Mean(perScheme["bdi"]))
	return &Result{ID: "headline", Table: t, Notes: []string{
		"paper: CABLE 8.2x vs CPACK 4.5x (1.82x relative); effective bandwidth 7.2x",
	}}, nil
}
