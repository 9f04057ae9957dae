package experiments

import (
	"fmt"

	"cable/internal/obs"
	"cable/internal/stats"
	"cable/internal/topo"
)

// This file is the scale-out topology experiment (`-exp mesh`): the
// discrete-event N-chip engine (internal/topo) run across the sweep
// benchmark subset on a configurable interconnect. Its cells go through
// runCell like every other simulator's (topoCell is the descriptor).

func topoFlightKey(cfg topo.Config) string {
	d := cfg.Digest()
	return fmt.Sprintf("topo/%s%d/%s/%x", cfg.Shape, cfg.Chips, topoSourceLabel(cfg), d[:6])
}

// topoSourceLabel names a topology cell's workload source for flight
// keys: the benchmark, the spec, or the replayed capture set.
func topoSourceLabel(cfg topo.Config) string {
	switch {
	case cfg.Workload != nil:
		return "spec:" + cfg.Workload.Name
	case len(cfg.Replay) > 0:
		return "replay:" + cfg.Replay[0].Header.Benchmark
	default:
		return cfg.Benchmark
	}
}

var topoCell = cellKind[topo.Config, *topo.Result]{
	digest: topo.Config.Digest,
	key:    topoFlightKey,
	run: func(c topo.Config, reg *obs.Registry, rec *obs.Recorder) (*topo.Result, error) {
		c.Metrics, c.Recorder = reg, rec
		return topo.Run(c)
	},
	// PerLink is the only reference field.
	clone: func(r *topo.Result) *topo.Result {
		out := *r
		out.PerLink = append([]topo.LinkStat(nil), r.PerLink...)
		return &out
	},
}

// runTopo is what the mesh driver calls in place of topo.Run. As in
// runMemLink, fault injection is applied before Digest() so faulted
// cells key separately.
func runTopo(opt Options, cfg topo.Config) (*topo.Result, error) {
	cfg.Fault = opt.Fault
	// Parallelism partitions links across workers and is excluded from
	// the digest: it cannot change any output bit.
	cfg.Parallelism = opt.workers()
	return runCell(opt, &topoCell, cfg)
}

// meshConfig builds the topology cell for one benchmark at the
// experiment's scale.
func meshConfig(opt Options, benchmark string) topo.Config {
	cfg := topo.DefaultConfig(benchmark)
	if opt.Topology != "" {
		cfg.Shape = opt.Topology
	}
	if opt.Chips > 0 {
		cfg.Chips = opt.Chips
	} else if opt.Quick {
		cfg.Chips = 8
	}
	if opt.Quick {
		cfg.Transfers = 16000
		cfg.HomeBytes = 256 << 10
		cfg.RemoteBytes = 64 << 10
	}
	return cfg
}

// meshRow runs one topology cell and commits its table row.
func meshRow(opt Options, t *stats.Table, row string, cfg topo.Config) (*topo.Result, error) {
	res, err := runTopo(opt, cfg)
	if err != nil {
		return nil, err
	}
	t.Set(row, "cable", res.Ratio())
	hitrate := 0.0
	if res.LinkTransfers > 0 {
		hitrate = float64(res.RemoteHits) / float64(res.LinkTransfers)
	}
	t.Set(row, "hitrate", hitrate)
	t.Set(row, "util", res.MeanUtilization())
	t.Set(row, "speedup", res.Speedup())
	return res, nil
}

// meshResult closes the table: the interconnect note (every row of one
// table runs on the same interconnect, so any row's result describes
// it) followed by the variant's own notes.
func meshResult(t *stats.Table, res *topo.Result, notes ...string) *Result {
	grid := ""
	if res.Shape == topo.ShapeMesh {
		grid = fmt.Sprintf(" (%dx%d, XY routing)", res.Width, res.Height)
	}
	return &Result{ID: "mesh", Table: t, Notes: append([]string{
		fmt.Sprintf("%d-chip %s%s, %d directed links, one CABLE end pair per link", res.Chips, res.Shape, grid, res.Links),
	}, notes...)}
}

const (
	meshTitle       = "Mesh: N-chip topology scale-out"
	meshSpeedupNote = "speedup = raw/CABLE makespan from the discrete-event replay; >1 means compression relieved queueing"
)

// Mesh regenerates the scale-out study: CABLE link compression, remote
// dictionary hit rate, link utilization and raw/CABLE makespan speedup
// on an N-chip topology under contention. Benchmarks run serially —
// the per-link partition inside each topology run is where the worker
// pool goes (20–48 directed links versus 4–8 benchmarks).
func Mesh(opt Options) (*Result, error) {
	if opt.Workload != nil || len(opt.Replay) > 0 {
		return meshFromSource(opt)
	}
	t := stats.NewTable(meshTitle, "cable", "hitrate", "util", "speedup")
	var res *topo.Result
	for _, name := range sweepSubset(opt) {
		var err error
		if res, err = meshRow(opt, t, name, meshConfig(opt, name)); err != nil {
			return nil, err
		}
	}
	t.AddMeanRow("mean")
	return meshResult(t, res, meshSpeedupNote,
		"hitrate = header-only transfers where the link's remote cache still held the line"), nil
}

// meshFromSource is the spec/replay variant of the scale-out study: a
// single topology run driven by the -workload-spec mix (every chip a
// variant-decorated instance) or by -replay captures (one per chip),
// instead of the benchmark sweep.
func meshFromSource(opt Options) (*Result, error) {
	cfg := meshConfig(opt, "")
	var row, source string
	if opt.Workload != nil {
		cfg.Workload = opt.Workload
		row = opt.Workload.Name
		source = fmt.Sprintf("spec %q, %d clients per chip", opt.Workload.Name, len(opt.Workload.Clients))
	} else {
		// One capture per chip: the capture count is the chip count.
		cfg.Replay = opt.Replay
		cfg.Chips = len(opt.Replay)
		row = topoSourceLabel(cfg)
		source = row
	}
	t := stats.NewTable(meshTitle, "cable", "hitrate", "util", "speedup")
	res, err := meshRow(opt, t, row, cfg)
	if err != nil {
		return nil, err
	}
	return meshResult(t, res, "source: "+source, meshSpeedupNote), nil
}
