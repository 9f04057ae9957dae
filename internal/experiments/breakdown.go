package experiments

import (
	"cable/internal/obs"
	"cable/internal/sim"
	"cable/internal/stats"
)

// Breakdown tabulates what the home-end encoder actually decided, per
// benchmark: the fraction of fill lines sent raw, standalone-compressed,
// or diff-compressed against 1/2/3 references, the fraction that skipped
// the signature search because standalone compression already met the
// threshold, and the mean payload bits per line. It is the coverage view
// behind the Fig 12 ratios — the same simulations, decomposed by
// encoding class instead of aggregated into one number, read from the
// home end's own account (sim.MemLinkResult.Home).
func Breakdown(opt Options) (*Result, error) {
	cols := make([]string, 0, int(obs.NumClasses)+2)
	for c := obs.EncodeClass(0); c < obs.NumClasses; c++ {
		cols = append(cols, c.String())
	}
	cols = append(cols, "skip", "bits/line")
	t := stats.NewTable("Encoding-class breakdown per fill line", cols...)

	names := zeroDominantLast(benchSubset(opt, false))
	results, err := cells(opt, len(names), func(i int) (*sim.MemLinkResult, error) {
		cfg := memLinkCfg(opt, names[i])
		cfg.WithMeters = false
		return runMemLink(opt, cfg)
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		// Every fill ends in exactly one class, and a DIFF against k
		// references is RefsUsed[k] (reference_test.go pins both).
		h := results[i].Home
		if h.Fills == 0 {
			continue
		}
		counts := [obs.NumClasses]uint64{
			obs.ClassRaw:        h.RawWins,
			obs.ClassStandalone: h.StandaloneWins,
			obs.ClassDiff1:      h.RefsUsed[1],
			obs.ClassDiff2:      h.RefsUsed[2],
			obs.ClassDiff3:      h.RefsUsed[3],
		}
		for c := obs.EncodeClass(0); c < obs.NumClasses; c++ {
			t.Set(name, c.String(), float64(counts[c])/float64(h.Fills))
		}
		t.Set(name, "skip", float64(h.ThresholdSkips)/float64(h.Fills))
		t.Set(name, "bits/line", float64(h.PayloadBits)/float64(h.Fills))
	}
	t.AddMeanRow("mean")
	return &Result{ID: "breakdown", Table: t, Notes: []string{
		"fractions of fill lines per final encoding class; rows sum to 1 across raw..diff-3ref",
		"skip: encodes that bypassed the signature search (standalone already under threshold)",
		"bits/line: mean payload bits before flit quantization",
	}}, nil
}
