package topo

import (
	"errors"
	"fmt"

	"cable/internal/obs"
	"cable/internal/workload"
	"cable/internal/workload/spec"
)

// injectFeed feeds the schedule pass: each chip's access stream plus
// the virtual times at which the accesses inject. Implementations keep
// strictly per-chip state (private generator/sampler/capture cursors),
// so the stream each chip sees is a pure function of the config — the
// event queue's pop order cannot perturb it.
type injectFeed interface {
	// firstAt returns chip c's first injection time; ok=false means
	// the chip injects nothing at all.
	firstAt(c int32) (at uint64, ok bool)
	// next returns chip c's current access and the absolute time of
	// the chip's next injection. more=false ends the chip's stream; a
	// non-nil error aborts the run (a capture ran dry mid-schedule).
	next(c int32, now uint64) (a workload.Access, nextAt uint64, more bool, err error)
	// hopTarget reports whether cfg.Transfers stops injection as a
	// hop-count target (gap-process feeds) or the streams run to
	// exhaustion (spec mixes, whose budget already encodes the length).
	hopTarget() bool
}

// gapFeed is the classic path: every chip draws from its own source —
// an instance of the one benchmark, or a recorded capture of it
// (addresses rebased to the engine's zero-based space) — and injects on
// a uniform inter-arrival process: one splitmix64 stream per chip,
// derived from the run seed, gaps uniform in [1, 2*MeanGap-1]. Injection
// times come from the seed either way, so replaying captures of the live
// per-chip streams reproduces the live schedule, and with it every
// per-link table, bit for bit.
type gapFeed struct {
	srcs    []workload.Source
	state   []uint64 // per-chip gap stream
	meanGap uint64
}

func newGapFeed(cfg Config) (*gapFeed, error) {
	f := &gapFeed{
		srcs:    make([]workload.Source, cfg.Chips),
		state:   make([]uint64, cfg.Chips),
		meanGap: uint64(cfg.MeanGap),
	}
	for c := range f.srcs {
		st := cfg.Seed + uint64(c)*0x9E3779B97F4A7C15
		f.state[c] = splitmix64(&st)
		if len(cfg.Replay) > 0 {
			// Only the capture's access stream is used; line content comes
			// from the encode pass's own content functions, so the source's
			// generator reports into a throwaway registry.
			src, err := cfg.Replay[c].Source(0, obs.NewRegistry())
			if err != nil {
				return nil, err
			}
			f.srcs[c] = src
			continue
		}
		g, err := workload.NewIn(cfg.Benchmark, c, 0, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		f.srcs[c] = workload.AsSource(g)
	}
	return f, nil
}

func (f *gapFeed) gap(c int32) uint64 {
	return 1 + splitmix64(&f.state[c])%(2*f.meanGap-1)
}

func (f *gapFeed) firstAt(c int32) (uint64, bool) { return f.gap(c), true }

// next hard-errors on a dry capture instead of ending the chip's
// stream: a live generator never runs out, so a silent early stop
// would quietly diverge from the run being reproduced.
func (f *gapFeed) next(c int32, now uint64) (workload.Access, uint64, bool, error) {
	a, err := f.srcs[c].Next()
	if err != nil {
		return a, 0, false, fmt.Errorf("topo: chip %d mid-schedule: %w", c, err)
	}
	return a, now + f.gap(c), true, nil
}

func (f *gapFeed) hopTarget() bool { return true }

// specFeed runs the declarative workload mix on every chip, variant-
// decorated per chip so the chips' address streams decorrelate while
// content stays one pure function of the address. Injection times are
// the mix's own emission times (the clients' arrival processes), and
// each chip's mix runs its budget — cfg.Transfers split evenly across
// chips — to exhaustion, which keeps phase-change fractions exact.
type specFeed struct {
	pending []spec.Emission
	mixes   []*spec.Mix
	// left counts each chip's remaining emissions: a live mix samples
	// forever (its Budget only anchors phase boundaries), so the feed
	// enforces the per-chip access budget itself.
	left []uint64
}

func newSpecFeed(cfg Config) (*specFeed, error) {
	per := cfg.Transfers / cfg.Chips
	if per < 1 {
		per = 1
	}
	f := &specFeed{
		pending: make([]spec.Emission, cfg.Chips),
		mixes:   make([]*spec.Mix, cfg.Chips),
		left:    make([]uint64, cfg.Chips),
	}
	for c := 0; c < cfg.Chips; c++ {
		m, err := spec.NewMix(cfg.Workload, spec.MixOptions{
			Variant:  uint64(c),
			Budget:   uint64(per),
			Registry: cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		f.mixes[c] = m
		e, err := m.Next()
		if err != nil {
			if errors.Is(err, spec.ErrExhausted) {
				continue
			}
			return nil, err
		}
		f.pending[c] = e
		f.left[c] = uint64(per)
	}
	return f, nil
}

func (f *specFeed) firstAt(c int32) (uint64, bool) {
	return f.pending[c].At, f.left[c] > 0
}

func (f *specFeed) next(c int32, now uint64) (workload.Access, uint64, bool, error) {
	a := f.pending[c].Access
	f.left[c]--
	if f.left[c] == 0 {
		return a, 0, false, nil
	}
	e, err := f.mixes[c].Next()
	if err != nil {
		if errors.Is(err, spec.ErrExhausted) {
			return a, 0, false, nil
		}
		return a, 0, false, err
	}
	f.pending[c] = e
	return a, e.At, true, nil
}

func (f *specFeed) hopTarget() bool { return false }

// newInjectFeed compiles the config's workload selection (Validate has
// already checked mutual exclusion) into the schedule pass's feed.
func newInjectFeed(cfg Config) (injectFeed, error) {
	if cfg.Workload != nil {
		return newSpecFeed(cfg)
	}
	return newGapFeed(cfg)
}

// newContentFactory returns the per-worker content-function builder
// for the encode pass. Line content is a pure function of the address
// in every mode, so worker-local instances are consistent by
// construction; each reports into a throwaway registry because which
// worker materializes which lines is a partition artifact.
func newContentFactory(cfg Config) func() (func(uint64) []byte, error) {
	if cfg.Workload != nil {
		return func() (func(uint64) []byte, error) {
			ct, err := spec.NewContentTable(cfg.Workload, obs.NewRegistry())
			if err != nil {
				return nil, err
			}
			return ct.LineData, nil
		}
	}
	bench := cfg.Benchmark
	if len(cfg.Replay) > 0 {
		bench = cfg.Replay[0].Header.Benchmark
	}
	return func() (func(uint64) []byte, error) {
		g, err := workload.NewIn(bench, 0, 0, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		return g.LineData, nil
	}
}
