package sim

import (
	"errors"

	"cable/internal/cache"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/mem"
	"cable/internal/obs"
	"cable/internal/stats"
	"cable/internal/workload"
)

// NonInclusiveConfig drives the §IV-C extension: a Haswell-EP-style
// Home Agent that is *not* inclusive of the remote Caching Agent. The
// home keeps a directory for coherence (it always knows what the remote
// holds) plus a non-inclusive data cache of recently-serviced lines;
// fills of lines it does not cache are forwarded straight from memory.
// CABLE compresses opportunistically: references must be lines the home
// still caches *and* the remote still holds; write-back compression is
// disabled (remote lines are not guaranteed to exist at the home).
type NonInclusiveConfig struct {
	Benchmark string
	Accesses  int
	// RemoteBytes sizes the Caching Agent's LLC.
	RemoteBytes int
	RemoteWays  int
	// HomeBytes sizes the Home Agent's non-inclusive data cache;
	// smaller than the remote is allowed logically, but the WMT
	// geometry requires ≥ remote sets, as in the paper's systems.
	HomeBytes int
	HomeWays  int
	Link      link.Config
	Cable     core.Config
	// Verify checks every decode bit-exact against the sent data and
	// panics on mismatch. Defaults on; the fault-soak runs disable it
	// to prove graceful degradation.
	Verify bool
	// Fault configures deterministic corruption of the wire images.
	// The zero value injects nothing and keeps every code path
	// byte-identical to a fault-free build.
	Fault fault.Config
	// Recorder, when non-nil, attaches a virtual-time flight recorder:
	// every access ticks it and the link feeds a "cable" track.
	// Observation-only.
	Recorder *obs.Recorder
}

// DefaultNonInclusiveConfig mirrors the memory-link setup with a
// same-size Home Agent cache.
func DefaultNonInclusiveConfig(benchmark string) NonInclusiveConfig {
	cable := core.DefaultConfig()
	cable.WritebackCompression = false // §IV-C
	return NonInclusiveConfig{
		Benchmark:   benchmark,
		Accesses:    60000,
		RemoteBytes: 1 << 20, RemoteWays: 8,
		HomeBytes: 2 << 20, HomeWays: 16,
		Link:   link.DefaultConfig(),
		Cable:  cable,
		Verify: true,
	}
}

// NonInclusiveResult reports the opportunistic-compression outcome.
type NonInclusiveResult struct {
	Cable stats.Ratio
	// ForwardedFills bypassed the home cache (no reference insert).
	ForwardedFills uint64
	// CachedFills were serviced from (or installed into) the home
	// cache and became reference candidates.
	CachedFills uint64
	WBs         uint64
	HomeEvicts  uint64
	// FaultsInjected / DecodeErrors / RawFallbacks account the
	// graceful-degradation pipeline (zero in fault-free runs; equal to
	// each other by construction with injection on).
	FaultsInjected uint64
	DecodeErrors   uint64
	RawFallbacks   uint64
}

// RunNonInclusive executes the non-inclusive simulation.
func RunNonInclusive(cfg NonInclusiveConfig) (*NonInclusiveResult, error) {
	gen, err := workload.New(cfg.Benchmark, 0, 0)
	if err != nil {
		return nil, err
	}
	remoteCfg := cache.Config{Name: "ca", SizeBytes: cfg.RemoteBytes, Ways: cfg.RemoteWays, LineSize: 64}
	homeCfg := cache.Config{Name: "ha", SizeBytes: cfg.HomeBytes, Ways: cfg.HomeWays, LineSize: 64}
	if err := errors.Join(remoteCfg.Validate(), homeCfg.Validate()); err != nil {
		return nil, err
	}
	store := mem.NewStore(64, gen.LineData)
	remote, home := cache.New(remoteCfg), cache.New(homeCfg)
	rec := cfg.Recorder
	pair, err := NewPair(home, remote, PairConfig{
		Cable: cfg.Cable, Link: link.New(cfg.Link), Injector: fault.New(cfg.Fault), Verify: cfg.Verify,
		Recorder: rec, Track: "cable", degrade: &degradeCounters{},
	})
	if err != nil {
		return nil, err
	}
	res := &NonInclusiveResult{}
	versions := writeVersionPool.Get().(writeVersions)

	for i := 0; i < cfg.Accesses; i++ {
		if rec != nil {
			rec.Tick()
		}
		a := gen.Next()
		if line, id, ok := remote.Access(a.LineAddr); ok {
			if a.Write {
				if line.State == cache.Shared {
					pair.Upgrade(id, line.Data, a.LineAddr)
					line.State = cache.Modified
				}
				versions.mutate(line.Data, a.LineAddr)
			}
			continue
		}
		// Remote miss: evict the victim; dirty data goes home
		// uncompressed-by-references (standalone only, §IV-C). The home
		// may or may not still cache the line: if not, memory takes it.
		way, victim, ok := remote.Victim(a.LineAddr)
		if ok {
			ev, _ := remote.Invalidate(victim)
			wb, absorbed := pair.EvictRemote(ev)
			if ev.State == cache.Modified {
				res.WBs++
				res.Cable.Add(len(ev.Data)*8, wb.Wire)
				if !absorbed {
					store.Write(ev.LineAddr, ev.Data)
				}
			}
		}
		state := cache.Shared
		if a.Write {
			state = cache.Modified
		}
		// Service the fill: from the home cache if present, else from
		// memory (forward). Forwarded clean fills are also installed
		// into the home cache — a recently-used-lines policy — which
		// is what makes future references possible. The install evicts
		// WITHOUT back-invalidating the remote: the defining
		// non-inclusive behavior.
		line, hit, evicted, _ := pair.EnsureHome(a.LineAddr, store, nil)
		if hit {
			res.CachedFills++
		} else {
			res.ForwardedFills++
		}
		if evicted {
			res.HomeEvicts++
		}
		data := line.Data
		r := pair.Fill(a.LineAddr, data, state, way)
		res.Cable.Add(len(data)*8, r.Wire)
		if a.Write {
			l, _, _ := remote.Probe(a.LineAddr)
			versions.mutate(l.Data, a.LineAddr)
		}
	}
	res.FaultsInjected, res.DecodeErrors, res.RawFallbacks = pair.Xfer.FaultsInjected, pair.Xfer.DecodeErrors, pair.Xfer.RawFallbacks
	// Recycle the run's state: the write-version map returns to its pool
	// and the CABLE-end tables and cache backings go back to the shared
	// pools, so fault soaks and sweeps that run many non-inclusive cells
	// stop re-growing the same multi-megabyte allocations per cell. The
	// backing store is dropped, not released: the shipped run fills
	// 31 610 lines, three times any experiment cell's, and its chunks
	// handed on stayed live through the next cell, raising sim_suite's
	// peak resident set by 4 MiB while saving no measurable allocation.
	clear(versions)
	writeVersionPool.Put(versions)
	pair.Release()
	return res, nil
}
