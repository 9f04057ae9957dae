package experiments

import (
	"fmt"

	"cable/internal/sim"
	"cable/internal/stats"
)

// sweepMeans fans a (sweep point × benchmark) grid of memory-link cells
// out across the cell worker pool — mutate adjusts the default cell for
// its point — and returns, per point, each scheme's mean ratio over the
// benchmarks (taken in names order).
func sweepMeans(opt Options, points int, names, schemes []string,
	mutate func(point int, cfg *sim.MemLinkConfig)) ([]map[string]float64, error) {
	results, err := cells(opt, points*len(names), func(k int) (*sim.MemLinkResult, error) {
		cfg := memLinkCfg(opt, names[k%len(names)])
		mutate(k/len(names), &cfg)
		return runMemLink(opt, cfg)
	})
	if err != nil {
		return nil, err
	}
	means := make([]map[string]float64, points)
	for p := range means {
		means[p] = make(map[string]float64, len(schemes))
		for _, s := range schemes {
			vs := make([]float64, len(names))
			for ni := range names {
				vs[ni] = results[p*len(names)+ni].Ratio(s)
			}
			means[p][s] = stats.Mean(vs)
		}
	}
	return means, nil
}

// Fig19a sweeps the per-thread LLC allocation (1:4 LLC:L4 kept).
func Fig19a(opt Options) (*Result, error) {
	sizes := []int{128 << 10, 512 << 10, 2 << 20, 8 << 20}
	if opt.Quick {
		sizes = []int{64 << 10, 256 << 10, 1 << 20}
	}
	schemes := []string{"cpack", "gzip", "cable"}
	t := stats.NewTable("Fig 19a: compression vs LLC size", schemes...)
	means, err := sweepMeans(opt, len(sizes), sweepSubset(opt), schemes, func(si int, cfg *sim.MemLinkConfig) {
		cfg.Chip.LLCBytes = sizes[si]
		cfg.Chip.L4Bytes = sizes[si] * 4
	})
	if err != nil {
		return nil, err
	}
	for si, size := range sizes {
		row := fmt.Sprintf("%dKB", size>>10)
		if size >= 1<<20 {
			row = fmt.Sprintf("%dMB", size>>20)
		}
		for _, s := range schemes {
			t.Set(row, s, means[si][s])
		}
	}
	return &Result{ID: "fig19a", Table: t, Notes: []string{
		"paper: ratios mostly static across cache sizes, improving slightly at larger caches",
	}}, nil
}

// Fig19b sweeps the LLC:L4 ratio with the LLC fixed: the reachable
// shared data is bounded by the smaller cache, so ratios barely move.
func Fig19b(opt Options) (*Result, error) {
	ratios := []int{2, 4, 8}
	schemes := []string{"cpack", "gzip", "cable"}
	t := stats.NewTable("Fig 19b: compression vs LLC:L4 ratio", schemes...)
	means, err := sweepMeans(opt, len(ratios), sweepSubset(opt), schemes, func(ri int, cfg *sim.MemLinkConfig) {
		cfg.Chip.L4Bytes = cfg.Chip.LLCBytes * ratios[ri]
	})
	if err != nil {
		return nil, err
	}
	for ri, r := range ratios {
		for _, s := range schemes {
			t.Set(fmt.Sprintf("1:%d", r), s, means[ri][s])
		}
	}
	return &Result{ID: "fig19b", Table: t, Notes: []string{
		"paper: averages vary within ~1% across L4 ratios (dictionary bounded by the smaller cache)",
	}}, nil
}

// Fig21 sweeps the hash table size from 2x down to 1/2048x of
// full-sized, reporting compression relative to the 2x table.
func Fig21(opt Options) (*Result, error) {
	factors := []float64{2, 1, 0.5, 0.125, 1.0 / 64, 1.0 / 512, 1.0 / 2048}
	if opt.Quick {
		factors = []float64{2, 0.5, 1.0 / 64, 1.0 / 2048}
	}
	t := stats.NewTable("Fig 21: compression vs hash table size (relative to 2x)", "relative")
	means, err := sweepMeans(opt, len(factors), sweepSubset(opt), []string{"cable"}, func(fi int, cfg *sim.MemLinkConfig) {
		cfg.WithMeters = false
		cfg.Chip.Cable.HashSizeFactor = factors[fi]
	})
	if err != nil {
		return nil, err
	}
	for fi, f := range factors {
		t.Set(fmt.Sprintf("%gx", f), "relative", means[fi]["cable"]/means[0]["cable"])
	}
	return &Result{ID: "fig21", Table: t, Notes: []string{
		"paper: graceful degradation; 1/8x loses <7% worst case",
	}}, nil
}

// Fig22 sweeps the data access count (pre-ranked candidates read from
// the data array), relative to 64 accesses.
func Fig22(opt Options) (*Result, error) {
	counts := []int{1, 2, 4, 6, 8, 16, 32, 64}
	if opt.Quick {
		counts = []int{1, 6, 16, 64}
	}
	t := stats.NewTable("Fig 22: compression vs data access count (relative to 64)", "relative")
	means, err := sweepMeans(opt, len(counts), sweepSubset(opt), []string{"cable"}, func(ci int, cfg *sim.MemLinkConfig) {
		cfg.WithMeters = false
		cfg.Chip.Cable.AccessCount = counts[ci]
	})
	if err != nil {
		return nil, err
	}
	// 64 accesses is the last point of both count lists.
	base := means[len(counts)-1]["cable"]
	for ci, n := range counts {
		t.Set(fmt.Sprintf("%d", n), "relative", means[ci]["cable"]/base)
	}
	return &Result{ID: "fig22", Table: t, Notes: []string{
		"paper: one access stays within 80% of 64 accesses — pre-ranking filters collisions well",
	}}, nil
}

// Fig23 sweeps the physical link width; wide flits waste bits on small
// payloads unless the packed transport is used.
func Fig23(opt Options) (*Result, error) {
	variants := []struct {
		name   string
		width  int
		packed bool
	}{
		{"16-bit", 16, false},
		{"32-bit", 32, false},
		{"64-bit", 64, false},
		{"64-bit-packed", 64, true},
	}
	names := append(sweepSubset(opt), "mcf", "lbm")
	t := stats.NewTable("Fig 23: effective compression vs link width", "cable")
	means, err := sweepMeans(opt, len(variants), names, []string{"cable"}, func(vi int, cfg *sim.MemLinkConfig) {
		cfg.WithMeters = false
		cfg.Chip.Link.WidthBits = variants[vi].width
		cfg.Chip.Link.Packed = variants[vi].packed
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		t.Set(v.name, "cable", means[vi]["cable"])
	}
	return &Result{ID: "fig23", Table: t, Notes: []string{
		"paper: effective ratio degrades at wider links (flit padding); packed transport recovers it",
	}}, nil
}
