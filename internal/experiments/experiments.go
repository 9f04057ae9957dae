// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VI). Each driver regenerates the corresponding
// rows/series; cmd/cablereport runs them all and EXPERIMENTS.md records
// paper-vs-measured values. This package's tests run every driver at
// quick scale.
package experiments

import (
	"fmt"
	"sort"

	"cable/internal/fault"
	"cable/internal/obs"
	"cable/internal/stats"
	"cable/internal/trace"
	"cable/internal/workload"
	"cable/internal/workload/spec"
)

// Options tune experiment scale. Quick mode shrinks caches, access
// counts and benchmark subsets so the whole suite runs in seconds (for
// tests, CI and benchmark/run.sh); full mode is for cmd/cablereport.
type Options struct {
	Quick bool

	// Parallelism bounds the worker pool used both across experiments
	// (RunAll/RunAllStream) and across independent cells inside a
	// driver (per-benchmark, per-sweep-point). Zero or negative means
	// runtime.GOMAXPROCS(0). Results are bit-identical at any setting:
	// every cell seeds its own generators and tables are filled in
	// loop order after collection.
	Parallelism int

	// DisableCellMemo turns off the cross-experiment cell cache
	// (memo.go), forcing every simulation to recompute. Outputs are
	// bit-identical either way; the flag exists for A/B verification
	// and for the `-nomemo` CLI escape hatch.
	DisableCellMemo bool

	// Fault applies deterministic link fault injection to every
	// CABLE simulation the drivers run (the `-fault-rate`/`-fault-seed`
	// CLI flags). The zero value injects nothing and keeps all outputs
	// byte-identical to a build without the fault layer. Fault config
	// is folded into the cell-memo digests, so faulted and clean cells
	// never alias.
	Fault fault.Config

	// Topology/Chips override the `mesh` experiment's interconnect
	// shape ("ring"|"mesh"|"star") and chip count from the CLI
	// (`-topology`, `-chips`). Zero values mean the driver default
	// (16-chip mesh; 8 chips in quick mode).
	Topology string
	Chips    int

	// Workload, when non-nil, is a declarative workload spec (the
	// `-workload-spec` CLI flag). The `workload` experiment runs it
	// through the memory-link driver, and the `mesh` experiment swaps
	// its benchmark sweep for a single spec-driven topology run. Folded
	// into the cell digests, so distinct specs never alias memo cells.
	Workload *spec.Workload

	// Replay, when non-empty, feeds recorded cabletrace captures (the
	// `-replay` CLI flag) instead of live generators: the `workload`
	// experiment maps one capture per program slot (or per client when
	// combined with Workload), and the `mesh` experiment maps one per
	// chip. Behavioral, so folded into the cell digests.
	Replay []*trace.Trace

	// Flight, when non-nil, attaches a virtual-time flight recorder to
	// every simulation cell the drivers run (the `-windows`/`-timeline`
	// CLI flags). Each distinct cell digest registers exactly one
	// recorder — under the cell memo only the single-flight compute
	// owner records; with the memo off, repeated identical cells record
	// identical content and only the first registration is kept — so
	// flight dumps are byte-identical at any Parallelism, memo on or
	// off. Observation-only: simulated results are unaffected.
	Flight *obs.Flight
}

// Result is one regenerated table/figure.
type Result struct {
	ID    string
	Table *stats.Table
	Notes []string
}

type driver struct {
	id   string
	desc string
	run  func(Options) (*Result, error)
}

var drivers = []driver{
	{"fig3", "compression ratio vs dictionary size, with/without pointer overhead", Fig3},
	{"fig11", "off-chip link compression normalized to CPACK", Fig11},
	{"fig12", "off-chip link compression, raw ratios", Fig12},
	{"fig13", "4-chip coherence link compression", Fig13},
	{"fig14a", "throughput speedup at 2048 threads", Fig14a},
	{"fig14b", "mean throughput speedup vs thread count", Fig14b},
	{"fig15", "cooperative multiprogram (Single vs Multi4)", Fig15},
	{"fig16", "destructive multiprogram mixes (Table VI)", Fig16},
	{"fig17", "single-thread degradation from compression latency", Fig17},
	{"fig18", "memory subsystem energy breakdown", Fig18},
	{"fig19a", "compression vs LLC size", Fig19a},
	{"fig19b", "compression vs LLC:L4 ratio", Fig19b},
	{"fig20", "CABLE with different compression engines", Fig20},
	{"fig21", "hash table size sensitivity", Fig21},
	{"fig22", "data access count sensitivity", Fig22},
	{"fig23", "link width sensitivity", Fig23},
	{"tab3", "area overheads (hash table, WMT, RemoteLID width)", Tab3},
	{"toggles", "bit-toggle reduction on the 16-bit link", Toggles},
	{"headline", "headline aggregates (§VI-B)", Headline},
	{"onoff", "on/off compression control (§VI-D)", OnOff},
	{"ablation", "design-choice ablations (pointer width, bucket depth, insert signatures)", Ablation},
	{"breakdown", "per-benchmark encoding-class coverage (raw/standalone/diff-N, skips, bits per line)", Breakdown},
	{"mesh", "N-chip topology scale-out (ring/mesh/star, discrete-event contention)", Mesh},
	{"workload", "declarative workload-spec mix / trace replay through the memory-link driver", Workload},
}

// IDs lists every experiment id in paper order.
func IDs() []string {
	ids := make([]string, len(drivers))
	for i, d := range drivers {
		ids[i] = d.id
	}
	return ids
}

// Describe returns the one-line description of an experiment.
func Describe(id string) string {
	for _, d := range drivers {
		if d.id == id {
			return d.desc
		}
	}
	return ""
}

// Run executes one experiment by id.
func Run(id string, opt Options) (*Result, error) {
	for _, d := range drivers {
		if d.id == id {
			return d.run(opt)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// benchSubset returns the benchmark list for an option level: a
// representative 8-benchmark subset in quick mode, the full suite
// otherwise.
func benchSubset(opt Options, nonTrivialOnly bool) []string {
	var specs []workload.Spec
	if nonTrivialOnly {
		specs = workload.NonTrivial()
	} else {
		specs = workload.All()
	}
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	if !opt.Quick {
		return names
	}
	quick := []string{"gcc", "bzip2", "omnetpp", "dealII", "tonto", "gobmk", "povray", "soplex"}
	if !nonTrivialOnly {
		quick = append(quick, "mcf", "lbm")
	}
	sort.Strings(quick)
	return quick
}

// accesses returns the per-program access budget.
func accesses(opt Options) int {
	if opt.Quick {
		return 12000
	}
	return 60000
}

// sweepSubset returns the benchmark list for parameter sweeps, which
// multiply run count by sweep width: a fixed representative subset
// (half similarity-rich, half mixed/hard) rather than the full suite.
func sweepSubset(opt Options) []string {
	if opt.Quick {
		return []string{"dealII", "gobmk", "omnetpp", "bzip2"}
	}
	return []string{"dealII", "tonto", "gobmk", "omnetpp", "soplex", "bzip2", "gcc", "povray"}
}

// zeroDominantLast orders benchmark rows with the zero-dominant group
// on the right/bottom, as Fig 12 does.
func zeroDominantLast(names []string) []string {
	var normal, zd []string
	for _, n := range names {
		s, err := workload.ByName(n)
		if err == nil && s.ZeroDominant {
			zd = append(zd, n)
		} else {
			normal = append(normal, n)
		}
	}
	return append(normal, zd...)
}
