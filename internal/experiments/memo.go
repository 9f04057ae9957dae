package experiments

import (
	"maps"
	"slices"
	"sync"

	"cable/internal/obs"
	"cable/internal/sim"
	"cable/internal/stats"
)

// This file is the cross-experiment cell cache: many drivers evaluate
// overlapping (benchmark, scheme, config) cells — the sensitivity
// sweeps all contain the default point, fig11/fig12 share every cell,
// headline re-runs the fig12 suite — so RunAll pays for the same
// simulation several times. The memo keys cells by the sim package's
// canonical config digest and computes each distinct cell exactly once
// per process, with single-flight de-duplication so concurrent
// requesters of the same cell wait for one compute instead of racing.
//
// Bit-identity is preserved by construction, not by luck:
//
//   - Results: the simulations are deterministic, so replaying a stored
//     result is byte-equal to recomputing it. Requesters receive fresh
//     deep copies, never shared maps.
//   - Metrics: a memoized compute runs against a private obs.Registry
//     and stores its non-volatile snapshot. EVERY logical request — the
//     computing miss and every subsequent hit — merges that same
//     snapshot into the default registry, so counter totals (and the
//     metric name set) in `-metrics` dumps match a memo-disabled run
//     exactly, at any -parallel setting.
//   - Hit/miss counts: single-flight makes misses equal the number of
//     distinct digests and hits the remainder, independent of
//     scheduling, so the memo's own counters are deterministic too.
//
// runCell is the only front end: one descriptor (cellKind) per
// simulator says how to key, run and copy its cells.

// memoMaxEntries caps the memo's footprint. Reaching the cap clears the
// map: byte-identity is unaffected (the snapshot merge happens per
// request either way; a re-computed cell reproduces the same bits),
// only the time saved is lost. Full reports have a few hundred distinct
// cells, so the cap exists for pathological callers, not normal runs.
const memoMaxEntries = 4096

// memoEntry is one memoized cell. ready is closed once the compute
// finishes; the remaining fields are written before the close and read
// only after it (channel close establishes the happens-before edge).
type memoEntry struct {
	ready chan struct{}

	res any // the descriptor's R, as its run returned it
	// snap is the compute's non-volatile metrics, merged into the default
	// registry on every request for this cell.
	snap obs.Snapshot
	err  error
}

// cellMemo is one mutex over one map: a quick report makes 295 lookups
// in 23 s, one per ~80 ms of simulation, so there is nothing to stripe.
// Each digest (sim.DigestOf) starts with its config type's package path
// and name, so every simulator shares the map without aliasing.
type cellMemo struct {
	mu      sync.Mutex
	entries map[sim.Digest]*memoEntry
}

var memo cellMemo

// len counts memoized cells (for tests).
func (m *cellMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// ResetCellMemo drops every memoized cell. Tests that compare metric
// dumps across runs reset the memo alongside obs.Default() so both
// runs see the same hit/miss sequence.
func ResetCellMemo() {
	memo.mu.Lock()
	memo.entries = nil
	memo.mu.Unlock()
}

// lookup returns the entry for a digest and whether this caller owns
// the compute (miss). On a miss the caller MUST fill the entry and
// close ready, even on error — waiters block on it. Computes run
// outside the lock (single-flight via the ready channel), and so does
// every allocation: an allocating goroutine can be parked behind the
// garbage collector, and a parked lock holder stalls every other
// lookup (measured: 58 s of summed wait per quick report with the entry
// allocated under the lock, under 20 ms without). Hence the entry built
// up front — wasted on a hit — and the map sized so a report's few
// hundred cells never grow it.
func (m *cellMemo) lookup(d sim.Digest) (*memoEntry, bool) {
	fresh := &memoEntry{ready: make(chan struct{})}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[d]; ok {
		return e, false
	}
	if m.entries == nil || len(m.entries) >= memoMaxEntries {
		m.entries = make(map[sim.Digest]*memoEntry, 512)
	}
	m.entries[d] = fresh
	return fresh, true
}

// cellKind describes one simulator to runCell: everything the front end
// needs to know about a config type C and its result type R.
type cellKind[C, R any] struct {
	// digest is the memo key; nil marks a simulator that is never
	// memoized (it cannot scope its metrics to a private registry).
	digest func(C) sim.Digest
	// key names the cell's flight recorder.
	key func(C) string
	// run executes the simulation with cfg's Metrics and Recorder set to
	// reg and rec (nil: process default / none). No driver attaches
	// either itself, so nothing of the caller's is overwritten.
	run func(cfg C, reg *obs.Registry, rec *obs.Recorder) (R, error)
	// clone deep-copies a successful run's result, so requesters never
	// share maps.
	clone func(R) R
}

// runCell is the one front end between a driver and a simulator: every
// cell of every experiment goes through it. A bypassed cell (memo
// disabled, or a never-memoized simulator) runs directly; otherwise the
// digest's single-flight owner computes against a private registry and
// every request, owner and waiters alike, merges that registry's
// snapshot into the default one and gets its own copy of the result.
// With Options.Flight set, the one run of a cell — the owner, or each
// bypassed run — feeds the recorder registered under the cell's key
// (a repeat of a key gets nil and records nothing, see
// obs.Flight.Recorder).
//
// The memo's own counters (experiments.cellmemo_*) are deterministic
// across -parallel — single-flight, see the file comment — but they
// describe the process's caching, not the simulated workload: a
// `-nomemo` run legitimately differs. They are therefore volatile: left
// out of the deterministic `-metrics` dump, printed by the CLIs' closing
// stderr line.
func runCell[C, R any](opt Options, k *cellKind[C, R], cfg C) (R, error) {
	def, shard := obs.Default(), obs.NextShard()
	var rec *obs.Recorder
	if opt.DisableCellMemo || k.digest == nil {
		def.VolatileCounter("experiments.cellmemo_bypass").Inc(shard)
		if opt.Flight != nil {
			rec = opt.Flight.Recorder(k.key(cfg))
		}
		return k.run(cfg, nil, rec)
	}
	e, owner := memo.lookup(k.digest(cfg))
	if owner {
		def.VolatileCounter("experiments.cellmemo_misses").Inc(shard)
		reg := obs.NewRegistry()
		if opt.Flight != nil {
			rec = opt.Flight.Recorder(k.key(cfg))
		}
		e.res, e.err = k.run(cfg, reg, rec)
		e.snap = reg.Snapshot(false)
		close(e.ready)
	} else {
		<-e.ready
		def.VolatileCounter("experiments.cellmemo_hits").Inc(shard)
		// Simulated source bytes this request did not re-encode.
		def.VolatileCounter("experiments.cellmemo_saved_bytes").Add(shard, e.snap.Counters["core.source_bits"]/8)
	}
	def.Merge(e.snap)
	if e.err != nil {
		var none R
		return none, e.err
	}
	return k.clone(e.res.(R)), nil
}

// copyMemLinkResult deep-copies the parts of a result drivers read (the
// ratio/toggle maps, the home end's stats); Chip stays nil in the copy.
func copyMemLinkResult(r *sim.MemLinkResult) *sim.MemLinkResult {
	out := &sim.MemLinkResult{
		Programs:   slices.Clone(r.Programs),
		Total:      maps.Clone(r.Total),
		PerProgram: make(map[string][]stats.Ratio, len(r.PerProgram)),
		Toggles:    maps.Clone(r.Toggles),
		Home:       r.Home,
	}
	for k, v := range r.PerProgram {
		out.PerProgram[k] = slices.Clone(v)
	}
	return out
}

// memLinkCell runs sim.RunMemoryLink. Its results are slim: no driver
// reads the live Chip, so run deep-copies the ratio/toggle maps and
// recycles the chip's tables and line backings for the next cell.
var memLinkCell = cellKind[sim.MemLinkConfig, *sim.MemLinkResult]{
	digest: sim.MemLinkConfig.Digest,
	key:    memLinkFlightKey,
	run: func(c sim.MemLinkConfig, reg *obs.Registry, rec *obs.Recorder) (*sim.MemLinkResult, error) {
		c.Metrics, c.Recorder = reg, rec
		res, err := sim.RunMemoryLink(c)
		if err != nil {
			return nil, err
		}
		slim := copyMemLinkResult(res)
		res.Chip.Release()
		return slim, nil
	},
	clone: copyMemLinkResult,
}

// runMemLink is what every driver calls in place of sim.RunMemoryLink.
func runMemLink(opt Options, cfg sim.MemLinkConfig) (*sim.MemLinkResult, error) {
	// Fault injection is applied here — the single choke point every
	// driver goes through — and before Digest(), so faulted cells key
	// separately from clean ones.
	cfg.Chip.Fault = opt.Fault
	return runCell(opt, &memLinkCell, cfg)
}

var timingCell = cellKind[sim.TimingConfig, *sim.TimingResult]{
	digest: sim.TimingConfig.Digest,
	key:    timingFlightKey,
	run: func(c sim.TimingConfig, reg *obs.Registry, rec *obs.Recorder) (*sim.TimingResult, error) {
		c.Metrics, c.Recorder = reg, rec
		return sim.RunTiming(c)
	},
	clone: func(r *sim.TimingResult) *sim.TimingResult {
		out := *r
		return &out
	},
}

// runTiming is what every driver calls in place of sim.RunTiming.
func runTiming(opt Options, cfg sim.TimingConfig) (*sim.TimingResult, error) {
	cfg.Fault = opt.Fault
	return runCell(opt, &timingCell, cfg)
}

// multiChipCell runs sim.RunMultiChip, which has no Metrics field: it
// always counts into the default registry, so it is never memoized (no
// digest) and nothing retains its result (clone is the identity).
var multiChipCell = cellKind[sim.MultiChipConfig, *sim.MultiChipResult]{
	key: multiChipFlightKey,
	run: func(c sim.MultiChipConfig, _ *obs.Registry, rec *obs.Recorder) (*sim.MultiChipResult, error) {
		c.Recorder = rec
		return sim.RunMultiChip(c)
	},
	clone: func(r *sim.MultiChipResult) *sim.MultiChipResult { return r },
}

// runMultiChip is what Fig13 calls in place of sim.RunMultiChip.
func runMultiChip(opt Options, cfg sim.MultiChipConfig) (*sim.MultiChipResult, error) {
	cfg.Fault = opt.Fault
	return runCell(opt, &multiChipCell, cfg)
}
