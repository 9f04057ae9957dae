package sim

import (
	"fmt"

	"cable/internal/core"
	"cable/internal/obs"
	"cable/internal/stats"
	"cable/internal/trace"
	"cable/internal/workload"
	"cable/internal/workload/spec"
)

// programSpacing separates co-running programs' address spaces.
const programSpacing = uint64(1) << 32

// MemLinkConfig drives the functional memory-link study (§VI-B/C): one
// or more programs share an LLC/L4 pair, and every compression scheme
// measures the identical off-chip transfer stream.
type MemLinkConfig struct {
	// Chip sizes one program's share: the run multiplies its LLC and L4
	// capacity by the program count, matching the paper's per-thread
	// 1 MB LLC share.
	Chip ChipConfig
	// Benchmarks are the co-running programs (1 for single-program
	// studies, 4 for the multiprogram studies).
	Benchmarks []string
	// AccessesPerProgram bounds the simulation length.
	AccessesPerProgram int
	// WithMeters attaches the baseline comparison set.
	WithMeters bool
	// Trace is accepted and ignored: the decision tracer is deleted
	// (MemLinkResult.Home carries the class mix), and the field survives
	// in the smallest form that compiles only because the frozen
	// benchmark/ sets it. Nothing else may read or set it; ROADMAP item
	// 5's [benchmark] PR drops it with the rung that does.
	Trace *struct{} `digest:"-"`
	// Metrics, when non-nil, scopes the whole simulation's obs
	// counters (chip, links, meters, workload generators) to a private
	// registry. The cell memo runs memoized simulations this way and
	// merges the captured delta into the default registry per request.
	// Never affects simulated results; excluded from content digests.
	Metrics *obs.Registry `digest:"-"`
	// Recorder, when non-nil, attaches a virtual-time flight recorder
	// to the chip (see ChipConfig.Recorder). Observation-only; excluded
	// from content digests.
	Recorder *obs.Recorder `digest:"-"`
	// Workload, when non-nil, replaces Benchmarks with a declarative
	// multi-client mix (internal/workload/spec): arrival-process
	// scheduled clients instead of the fixed round-robin interleave.
	Workload *spec.Workload
	// Replay, when non-empty, feeds recorded captures instead of live
	// generators: one per program slot for plain captures, or —
	// combined with Workload — one per client as written by
	// spec.RecordClients. Behavioral: the digest covers every record.
	Replay []*trace.Trace
}

// DefaultMemLinkConfig returns the Table IV single-program setup.
func DefaultMemLinkConfig(benchmarks ...string) MemLinkConfig {
	return MemLinkConfig{
		Chip:               DefaultChipConfig(),
		Benchmarks:         benchmarks,
		AccessesPerProgram: 60000,
		WithMeters:         true,
	}
}

// MemLinkResult carries per-scheme compression outcomes.
type MemLinkResult struct {
	// Programs labels the per-program slots: benchmark names, spec
	// client IDs, or replayed capture names.
	Programs []string
	// Total maps scheme → aggregate link compression ratio.
	Total map[string]stats.Ratio
	// PerProgram maps scheme → per-program ratios, index-aligned with
	// Programs.
	PerProgram map[string][]stats.Ratio
	// Toggles maps scheme → wire bit toggles (§VI-D).
	Toggles map[string]uint64
	// Home is the CABLE home end's encode account: fills, the class each
	// ended up with, threshold skips, payload bits. Zero when the chip
	// runs no CABLE link.
	Home core.HomeStats
	// Chip exposes the simulated chip for energy/latency accounting.
	Chip *Chip
}

// Ratio returns the total ratio for a scheme (1.0 for unknown schemes).
func (r *MemLinkResult) Ratio(scheme string) float64 {
	if t, ok := r.Total[scheme]; ok {
		return t.Value()
	}
	return 1
}

// accessFeed abstracts where the interleaved access stream and the
// backing-store contents come from. A declarative workload mix
// (*spec.Mix, live or replayed) is one as it stands: program slots are
// the mix's clients and the interleave follows their arrival processes.
type accessFeed interface {
	// Next returns the next access and the program slot that owns it.
	Next() (spec.Emission, error)
	// LineData materializes backing-store contents.
	LineData(addr uint64) []byte
	// ClientIDs names the program slots.
	ClientIDs() []string
}

// slotFeed is the classic path: one source per co-running program — a
// live generator or a recorded capture, each in its own address space —
// interleaved round-robin, so the link sees the streams mixed as a real
// shared memory controller would.
type slotFeed struct {
	srcs  []workload.Source
	names []string
	step  int
}

func (f *slotFeed) Next() (spec.Emission, error) {
	i := f.step % len(f.srcs)
	f.step++
	a, err := f.srcs[i].Next()
	return spec.Emission{Client: i, Access: a}, err
}

func (f *slotFeed) LineData(addr uint64) []byte {
	return f.srcs[int(addr/programSpacing)].LineData(addr)
}

func (f *slotFeed) ClientIDs() []string { return f.names }

// newFeed compiles the config's workload selection into a feed and the
// total access count.
func newFeed(cfg MemLinkConfig) (accessFeed, int, error) {
	switch {
	case cfg.Workload != nil:
		if len(cfg.Benchmarks) > 0 {
			return nil, 0, fmt.Errorf("sim: Benchmarks and Workload are mutually exclusive")
		}
		total := cfg.AccessesPerProgram * len(cfg.Workload.Clients)
		mix, err := spec.NewMix(cfg.Workload, spec.MixOptions{
			Budget:   uint64(total),
			Registry: cfg.Metrics,
			Replay:   cfg.Replay,
		})
		if err != nil {
			return nil, 0, err
		}
		return mix, total, nil
	case len(cfg.Replay) > 0 && len(cfg.Benchmarks) > 0:
		return nil, 0, fmt.Errorf("sim: Benchmarks and Replay are mutually exclusive")
	case len(cfg.Replay) > 0 || len(cfg.Benchmarks) > 0:
		n := len(cfg.Benchmarks) + len(cfg.Replay) // one of the two is empty
		f := &slotFeed{srcs: make([]workload.Source, n), names: make([]string, n)}
		for i := range f.srcs {
			var bench string
			var replay *trace.Trace
			if len(cfg.Replay) > 0 {
				replay = cfg.Replay[i]
			} else {
				bench = cfg.Benchmarks[i]
			}
			var err error
			if f.srcs[i], f.names[i], err = newSlotSource(bench, replay, i, cfg.AccessesPerProgram, cfg.Metrics); err != nil {
				return nil, 0, err
			}
		}
		return f, cfg.AccessesPerProgram * len(f.srcs), nil
	default:
		return nil, 0, fmt.Errorf("sim: no benchmarks, workload, or replay configured")
	}
}

// newSlotSource resolves program slot's access source and label: a live
// generator for benchmark, or a replay capture (mutually exclusive)
// holding at least need records, placed in the slot's address space.
func newSlotSource(benchmark string, replay *trace.Trace, slot, need int, reg *obs.Registry) (workload.Source, string, error) {
	base := uint64(slot) * programSpacing
	if replay == nil {
		gen, err := workload.NewIn(benchmark, slot, base, reg)
		if err != nil {
			return nil, "", err
		}
		return workload.AsSource(gen), benchmark, nil
	}
	src, err := replay.Source(base, reg)
	if err != nil {
		return nil, "", err
	}
	if src.Len() < need {
		return nil, "", fmt.Errorf("%w: capture %q has %d records, run needs %d per program",
			trace.ErrExhausted, replay.Header.Benchmark, src.Len(), need)
	}
	return src, replay.Header.Benchmark, nil
}

// RunMemoryLink executes the functional memory-link simulation.
func RunMemoryLink(cfg MemLinkConfig) (*MemLinkResult, error) {
	feed, total, err := newFeed(cfg)
	if err != nil {
		return nil, err
	}
	programs := feed.ClientIDs()
	chipCfg := cfg.Chip
	if cfg.Metrics != nil {
		chipCfg.Metrics = cfg.Metrics
	}
	if cfg.Recorder != nil {
		chipCfg.Recorder = cfg.Recorder
	}
	chipCfg.LLCBytes *= len(programs)
	chipCfg.L4Bytes *= len(programs)
	chip, err := NewChip(chipCfg, feed.LineData)
	if err != nil {
		return nil, err
	}
	if cfg.WithMeters {
		chip.Meters = DefaultMetersIn(chipCfg.Link, cfg.Metrics)
	}

	for step := 0; step < total; step++ {
		e, err := feed.Next()
		if err != nil {
			return nil, fmt.Errorf("sim: access %d: %w", step, err)
		}
		chip.Access(e.Access, e.Client)
	}

	res := &MemLinkResult{
		Programs:   programs,
		Total:      map[string]stats.Ratio{},
		PerProgram: map[string][]stats.Ratio{},
		Toggles:    map[string]uint64{},
		Chip:       chip,
	}
	collect := func(name string, total stats.Ratio, per func(int) stats.Ratio, toggles uint64) {
		res.Total[name] = total
		rs := make([]stats.Ratio, len(programs))
		for i := range rs {
			rs[i] = per(i)
		}
		res.PerProgram[name] = rs
		res.Toggles[name] = toggles
	}
	for _, m := range chip.Meters {
		collect(m.Name(), m.Total(), m.Ratio, m.Link().Toggles)
	}
	if chip.Home != nil {
		collect("cable", chip.CableTotal(), chip.CableRatio, chip.CableLink.Toggles)
		res.Home = chip.Home.Stats
	}
	return res, nil
}
