package experiments

import (
	"cable/internal/obs"
	"cable/internal/stats"
)

// Breakdown tabulates what the home-end encoder actually decided, per
// benchmark: the fraction of fill lines sent raw, standalone-compressed,
// or diff-compressed against 1/2/3 references, the fraction that skipped
// the signature search because standalone compression already met the
// threshold, and the mean payload bits per line. It is the coverage view
// behind the Fig 12 ratios — the same simulations, decomposed by
// encoding class instead of aggregated into one number.
func Breakdown(opt Options) (*Result, error) {
	cols := make([]string, 0, int(obs.NumClasses)+2)
	for c := obs.EncodeClass(0); c < obs.NumClasses; c++ {
		cols = append(cols, c.String())
	}
	cols = append(cols, "skip", "bits/line")
	t := stats.NewTable("Encoding-class breakdown per fill line", cols...)

	names := zeroDominantLast(benchSubset(opt, false))
	tracers, err := cells(opt, len(names), func(i int) (*obs.Tracer, error) {
		// Exact class counts live in the tracer aggregates; the ring
		// only keeps a bounded sample, so capacity is a memory knob,
		// not a coverage one.
		tr := obs.NewTracer(1024, 64)
		cfg := memLinkCfg(opt, names[i])
		cfg.WithMeters = false
		cfg.Trace = tr
		_, err := runMemLink(opt, cfg)
		return tr, err
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		tr := tracers[i]
		total := tr.Total()
		if total == 0 {
			continue
		}
		counts := tr.ClassCounts()
		for c := obs.EncodeClass(0); c < obs.NumClasses; c++ {
			t.Set(name, c.String(), float64(counts[c])/float64(total))
		}
		t.Set(name, "skip", float64(tr.ThresholdSkips())/float64(total))
		t.Set(name, "bits/line", float64(tr.PayloadBits())/float64(total))
	}
	t.AddMeanRow("mean")
	return &Result{ID: "breakdown", Table: t, Notes: []string{
		"fractions of fill lines per final encoding class; rows sum to 1 across raw..diff-3ref",
		"skip: encodes that bypassed the signature search (standalone already under threshold)",
		"bits/line: mean payload bits before flit quantization",
	}}, nil
}
