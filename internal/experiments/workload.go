package experiments

import (
	"fmt"
	"strings"

	"cable/internal/stats"
	"cable/internal/workload/spec"
)

// This file is the declarative-workload experiment (`-exp workload`):
// the memory-link driver fed by a workload spec (-workload-spec), by
// recorded cabletrace captures (-replay), or by both (a spec replayed
// from its per-client captures). Rows are the run's program slots —
// spec clients or captures — so the per-scheme ratio table shows how
// each member of the mix compressed under the shared LLC/L4 pair.

// workloadAccesses picks the per-program access budget for the
// workload experiment: the standard budget, capped so replayed
// captures cover the whole run. The cap depends only on the captures
// (which are folded into the cell digest), so it is deterministic.
func workloadAccesses(opt Options) int {
	per := accesses(opt)
	if len(opt.Replay) == 0 {
		return per
	}
	if opt.Workload != nil {
		// Spec replay: captures are consumed by arrival order, not
		// round-robin, so the budget is the total record count split
		// over the clients (exact for RecordClients output).
		total := 0
		for _, t := range opt.Replay {
			total += len(t.Accesses)
		}
		if n := total / len(opt.Workload.Clients); n < per {
			per = n
		}
		return per
	}
	for _, t := range opt.Replay {
		if len(t.Accesses) < per {
			per = len(t.Accesses)
		}
	}
	return per
}

// Workload runs the spec/replay study. With neither source configured
// it returns an explanatory placeholder instead of failing, so plain
// `cablereport` runs (which execute every experiment) stay green.
func Workload(opt Options) (*Result, error) {
	t := stats.NewTable("Workload: declarative mix / trace replay", memLinkSchemes...)
	if opt.Workload == nil && len(opt.Replay) == 0 {
		return &Result{ID: "workload", Table: t, Notes: []string{
			"no workload source configured: pass -workload-spec FILE and/or -replay FILE[,FILE...]",
		}}, nil
	}
	if opt.Workload != nil && len(opt.Workload.Clients) == 0 {
		// A hand-built spec that never went through spec.Parse: reject
		// it before workloadAccesses divides by the client count.
		return nil, fmt.Errorf("experiments: workload spec %q has no clients: %w", opt.Workload.Name, spec.ErrInvalid)
	}
	cfg := memLinkCfg(opt)
	cfg.Workload = opt.Workload
	cfg.Replay = opt.Replay
	cfg.AccessesPerProgram = workloadAccesses(opt)
	res, err := runMemLink(opt, cfg)
	if err != nil {
		return nil, err
	}
	rows := uniqueRows(res.Programs)
	for i, row := range rows {
		for _, s := range memLinkSchemes {
			t.Set(row, s, res.PerProgram[s][i].Value())
		}
	}
	for _, s := range memLinkSchemes {
		t.Set("total", s, res.Ratio(s))
	}
	notes := []string{
		fmt.Sprintf("%s, %d accesses per program slot", workloadSourceNote(opt), cfg.AccessesPerProgram),
		"per-row ratios split the shared link's traffic by owning program; total is the whole stream",
	}
	return &Result{ID: "workload", Table: t, Notes: notes}, nil
}

// uniqueRows disambiguates duplicate program labels (two captures of
// the same benchmark) so each table row stays addressable.
func uniqueRows(programs []string) []string {
	seen := map[string]int{"total": 1}
	rows := make([]string, len(programs))
	for i, p := range programs {
		row := p
		if n := seen[p]; n > 0 {
			row = fmt.Sprintf("%s#%d", p, n)
		}
		seen[p]++
		rows[i] = row
	}
	return rows
}

func workloadSourceNote(opt Options) string {
	switch {
	case opt.Workload != nil && len(opt.Replay) > 0:
		return fmt.Sprintf("spec %q replayed from %d per-client captures", opt.Workload.Name, len(opt.Replay))
	case opt.Workload != nil:
		ids := make([]string, len(opt.Workload.Clients))
		for i, c := range opt.Workload.Clients {
			ids[i] = c.ID
		}
		return fmt.Sprintf("spec %q, live clients %s", opt.Workload.Name, strings.Join(ids, "+"))
	default:
		names := make([]string, len(opt.Replay))
		for i, t := range opt.Replay {
			names[i] = t.Header.Benchmark
		}
		return fmt.Sprintf("replayed captures %s", strings.Join(names, "+"))
	}
}
