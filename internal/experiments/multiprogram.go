package experiments

import (
	"fmt"

	"cable/internal/sim"
	"cable/internal/stats"
	"cable/internal/workload"
)

// Fig15 compares single-program compression with four co-running
// copies (SPECrate style): CABLE's cache-sized dictionary gains from
// cross-copy similarity; gzip's fixed window gains less and can lose.
func Fig15(opt Options) (*Result, error) {
	t := stats.NewTable("Fig 15: Single vs Multi4 (cooperative)",
		"gzip-single", "gzip-multi4", "cable-single", "cable-multi4")
	names := benchSubset(opt, true)
	if !opt.Quick {
		// Full mode still bounds the 4-copy runs: use the sweep
		// subset plus the paper's named callouts (gcc and namd).
		names = append(sweepSubset(opt), "namd")
	}
	runs, err := cells(opt, len(names)*2, func(k int) (*sim.MemLinkResult, error) {
		name := names[k/2]
		if k%2 == 0 {
			return runMemLink(opt, memLinkCfg(opt, name))
		}
		return runMemLink(opt, memLinkCfg(opt, name, name, name, name))
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		single, multi := runs[2*ni], runs[2*ni+1]
		t.Set(name, "gzip-single", single.Ratio("gzip"))
		t.Set(name, "gzip-multi4", multi.Ratio("gzip"))
		t.Set(name, "cable-single", single.Ratio("cable"))
		t.Set(name, "cable-multi4", multi.Ratio("cable"))
	}
	t.AddMeanRow("mean")
	gain := func(pfx string) float64 {
		return t.Get("mean", pfx+"-multi4") / t.Get("mean", pfx+"-single")
	}
	return &Result{ID: "fig15", Table: t, Notes: []string{
		fmt.Sprintf("measured multi4/single: cable %.2fx, gzip %.2fx", gain("cable"), gain("gzip")),
		"paper: CABLE improves ~60% in cooperative co-runs; gzip gains less (desynchronized phases)",
	}}, nil
}

// Fig16 runs the Table VI destructive mixes: per-program ratios in the
// mix normalized to that program's single-run ratio. gzip suffers
// dictionary pollution; CABLE's dictionary scales with the shared LLC.
func Fig16(opt Options) (*Result, error) {
	t := stats.NewTable("Fig 16: destructive mixes (ratio vs single-run)", "gzip", "cable")
	mixes := workload.Mixes[:]
	if opt.Quick {
		mixes = mixes[:3]
	}
	// Single-run ratios per unique benchmark and the mix runs are all
	// independent: fan them out as one flat cell grid (uniques first,
	// then one cell per mix).
	var uniques []string
	seen := map[string]bool{}
	for _, mix := range mixes {
		for _, name := range mix {
			if !seen[name] {
				seen[name] = true
				uniques = append(uniques, name)
			}
		}
	}
	runs, err := cells(opt, len(uniques)+len(mixes), func(k int) (*sim.MemLinkResult, error) {
		if k < len(uniques) {
			return runMemLink(opt, memLinkCfg(opt, uniques[k]))
		}
		mix := mixes[k-len(uniques)]
		return runMemLink(opt, memLinkCfg(opt, mix[0], mix[1], mix[2], mix[3]))
	})
	if err != nil {
		return nil, err
	}
	singles := map[string]map[string]float64{}
	for k, name := range uniques {
		singles[name] = map[string]float64{
			"gzip":  runs[k].Ratio("gzip"),
			"cable": runs[k].Ratio("cable"),
		}
	}
	for i, mix := range mixes {
		res := runs[len(uniques)+i]
		for _, scheme := range []string{"gzip", "cable"} {
			var rel float64
			per := res.PerProgram[scheme]
			for p, name := range mix {
				rel += per[p].Value() / singles[name][scheme]
			}
			t.Set(fmt.Sprintf("MIX%d", i), scheme, rel/4)
		}
	}
	t.AddMeanRow("mean")
	return &Result{ID: "fig16", Table: t, Notes: []string{
		"paper: gzip loses up to 25% under pollution; CABLE holds single-run ratios and can gain up to 35%",
	}}, nil
}
