package sim

import (
	"fmt"
	"sync"

	"cable/internal/cache"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/mem"
	"cable/internal/obs"
	"cable/internal/stats"
	"cable/internal/workload"
)

// MultiChipConfig drives the coherence-link study (§V-B, Fig 13): a
// NUMA system whose memory pages are interleaved round-robin across
// nodes. The benchmark runs on node 0; lines homed on other nodes cross
// a point-to-point coherence link with one CABLE pipeline per link pair.
type MultiChipConfig struct {
	Nodes     int // 4 in the paper, 2–8 in the NUMA-count study
	Benchmark string
	Accesses  int
	// LLCBytes sizes each node's llcWays-way LLC (the requester's
	// remote cache and each home node's home cache).
	LLCBytes int
	Link     link.Config
	Cable    core.Config
	// WithMeters attaches the baseline comparison set per link.
	WithMeters bool
	// PooledWMT enables the §IV-D super-WMT: all links share one
	// capacity-managed way-map pool instead of per-link full WMTs.
	// Write-back compression is disabled in this mode (pool evictions
	// are invisible to the remote side, §IV-C fallback).
	PooledWMT bool
	// PooledWMTFactor scales pool capacity relative to the remote
	// cache's line count (default 0.5 when pooled).
	PooledWMTFactor float64
	// Verify checks every decode bit-exact against the home data and
	// panics on mismatch. Defaults on; the fault-soak runs disable it
	// to prove graceful degradation.
	Verify bool
	// Fault configures deterministic corruption of the coherence-link
	// wire images. One injector covers all node-pair links in access
	// order, so the fault pattern is a pure function of (seed,
	// transfer stream). The zero value injects nothing and keeps every
	// code path byte-identical to a fault-free build.
	Fault fault.Config
	// Recorder, when non-nil, attaches a virtual-time flight recorder:
	// every access ticks it and each node-pair link feeds its own
	// "link<h>" track. Observation-only; excluded from content digests.
	Recorder *obs.Recorder `digest:"-"`
}

// pageLines is the NUMA interleaving granularity: 4 KB pages of 64
// lines, dealt round-robin across the nodes.
const pageLines = 64

// DefaultMultiChipConfig is the paper's 4-node setup.
func DefaultMultiChipConfig(benchmark string) MultiChipConfig {
	cable := core.DefaultConfig()
	// §VI-A: coherence-link hash tables are quarter-sized.
	cable.HashSizeFactor = 0.25
	return MultiChipConfig{
		Nodes: 4, Benchmark: benchmark, Accesses: 60000,
		LLCBytes:   1 << 20,
		Link:       link.DefaultConfig(),
		Cable:      cable,
		WithMeters: true,
		Verify:     true,
	}
}

// coherenceLink is one node-pair CABLE pipeline: requester node 0's LLC
// is the pair's remote cache; home node h's LLC is its home cache.
type coherenceLink struct {
	*Pair
	ratio  stats.Ratio
	meters []Meter
}

// MultiChipResult reports the coherence-link compression outcomes.
type MultiChipResult struct {
	// Total maps scheme → aggregate ratio across all links.
	Total map[string]stats.Ratio
	// RemoteFills / DirtyWBs count cross-chip transfers.
	RemoteFills, DirtyWBs uint64
	// LocalAccesses never crossed a link.
	LocalAccesses uint64
	// FaultsInjected / DecodeErrors / RawFallbacks account the
	// graceful-degradation pipeline (zero in fault-free runs; equal to
	// each other by construction with injection on).
	FaultsInjected uint64
	DecodeErrors   uint64
	RawFallbacks   uint64
}

// Ratio returns a scheme's aggregate ratio.
func (r *MultiChipResult) Ratio(scheme string) float64 {
	if t, ok := r.Total[scheme]; ok {
		return t.Value()
	}
	return 1
}

// validate rejects configurations the run would otherwise divide by or
// build caches from.
func (cfg MultiChipConfig) validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("sim: multichip needs ≥2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Accesses <= 0 {
		return fmt.Errorf("sim: multichip needs a positive access count, got %d", cfg.Accesses)
	}
	return cache.Config{Name: "llc", SizeBytes: cfg.LLCBytes, Ways: llcWays, LineSize: lineSize}.Validate()
}

// RunMultiChip executes the functional 4-chip coherence simulation.
func RunMultiChip(cfg MultiChipConfig) (*MultiChipResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gen, err := workload.New(cfg.Benchmark, 0, 0)
	if err != nil {
		return nil, err
	}
	store := mem.NewStore(lineSize, gen.LineData)
	home := func(addr uint64) int { return int((addr / pageLines) % uint64(cfg.Nodes)) }

	reqLLC := cache.New(cache.Config{Name: "llc0", SizeBytes: cfg.LLCBytes, Ways: llcWays, LineSize: lineSize})
	cableCfg := cfg.Cable
	var pool *core.SuperWMT
	if cfg.PooledWMT {
		cableCfg.WritebackCompression = false
		factor := cfg.PooledWMTFactor
		if factor <= 0 {
			factor = 0.5
		}
		// Every node's LLC has the requester's geometry.
		if pool, err = core.NewSuperWMT(int(float64(reqLLC.NumLines())*factor), 4, reqLLC, reqLLC); err != nil {
			return nil, err
		}
	}
	links := make([]*coherenceLink, cfg.Nodes) // index by home node; [0] unused
	rec := cfg.Recorder
	// One injector covers every link in access order, and one counter
	// block every link's degradations.
	injector := fault.New(cfg.Fault)
	degrade := &degradeCounters{}
	for h := 1; h < cfg.Nodes; h++ {
		homeLLC := cache.New(cache.Config{Name: fmt.Sprintf("llc%d", h), SizeBytes: cfg.LLCBytes, Ways: llcWays, LineSize: lineSize})
		pc := PairConfig{
			Cable: cableCfg, Link: link.New(cfg.Link), Injector: injector, Verify: cfg.Verify,
			Recorder: rec, Track: fmt.Sprintf("link%d", h), degrade: degrade,
		}
		if pool != nil {
			pc.WayMap = pool.View(h)
		}
		pair, err := NewPair(homeLLC, reqLLC, pc)
		if err != nil {
			return nil, err
		}
		links[h] = &coherenceLink{Pair: pair}
		if cfg.WithMeters {
			links[h].meters = DefaultMetersIn(cfg.Link, nil)
		}
	}
	res := &MultiChipResult{Total: map[string]stats.Ratio{}}
	versions := writeVersionPool.Get().(writeVersions)

	// evictReq processes a requester-LLC eviction, routing it (and a
	// dirty write-back) to the pair of the owning home node.
	evictReq := func(ev cache.Eviction) {
		h := home(ev.LineAddr)
		if h == 0 {
			if ev.State == cache.Modified {
				store.Write(ev.LineAddr, ev.Data)
			}
			return
		}
		cl := links[h]
		wb, absorbed := cl.EvictRemote(ev)
		if ev.State == cache.Modified {
			if !absorbed {
				panic(fmt.Sprintf("sim: multichip inclusivity violated for %#x", ev.LineAddr))
			}
			res.DirtyWBs++
			cl.ratio.Add(len(ev.Data)*8, wb.Wire)
			for _, m := range cl.meters {
				m.OnWriteback(ev.Data, 0)
			}
		}
	}
	// backInvalidate forces a home-LLC victim's copy out of the
	// requester's LLC (inclusive).
	backInvalidate := func(victim uint64) {
		if ev, hit := reqLLC.Invalidate(victim); hit {
			evictReq(ev)
		}
	}

	for i := 0; i < cfg.Accesses; i++ {
		if rec != nil {
			rec.Tick()
		}
		a := gen.Next()
		h := home(a.LineAddr)
		if line, id, ok := reqLLC.Access(a.LineAddr); ok {
			if a.Write && line.State == cache.Shared {
				if h != 0 {
					links[h].Upgrade(id, line.Data, a.LineAddr)
				}
				line.State = cache.Modified
			}
			if a.Write {
				versions.mutate(line.Data, a.LineAddr)
			}
			continue
		}
		// Requester miss: the victim goes before the home line is
		// installed, so a back-invalidation frees a second way of the
		// set the fill does not take.
		way, victim, ok := reqLLC.Victim(a.LineAddr)
		if ok {
			ev, _ := reqLLC.Invalidate(victim)
			evictReq(ev)
		}
		state := cache.Shared
		if a.Write {
			state = cache.Modified
		}
		if h == 0 {
			res.LocalAccesses++
			reqLLC.InsertAt(a.LineAddr, store.Read(a.LineAddr), state, way)
		} else {
			cl := links[h]
			want, _, _, _ := cl.EnsureHome(a.LineAddr, store, backInvalidate)
			res.RemoteFills++
			r := cl.Fill(a.LineAddr, want.Data, state, way)
			cl.ratio.Add(len(want.Data)*8, r.Wire)
			for _, m := range cl.meters {
				m.OnFill(want.Data, 0)
			}
		}
		if a.Write {
			l, _, _ := reqLLC.Probe(a.LineAddr)
			versions.mutate(l.Data, a.LineAddr)
		}
	}

	// Fold every link into the result and recycle the run's directory
	// state: every cache backing, CABLE-end table, gzip window and the
	// backing store go back to the shared pools and the write-version
	// map to its own, so sweeps that run many multichip cells stop
	// re-growing the same multi-megabyte allocations per cell.
	merge := func(scheme string, r stats.Ratio) {
		total := res.Total[scheme]
		total.Merge(r)
		res.Total[scheme] = total
	}
	for _, cl := range links[1:] {
		res.FaultsInjected += cl.Xfer.FaultsInjected
		res.DecodeErrors += cl.Xfer.DecodeErrors
		res.RawFallbacks += cl.Xfer.RawFallbacks
		merge("cable", cl.ratio)
		for _, m := range cl.meters {
			merge(m.Name(), m.Total())
		}
		releaseMeters(cl.meters)
		cl.Release()
	}
	clear(versions)
	writeVersionPool.Put(versions)
	store.Release()
	return res, nil
}

// writeVersions drives deterministic store-data mutation: address →
// number of writes so far.
type writeVersions map[uint64]uint32

// mutate applies a deterministic store-data edit for a write to addr.
// Stores write small program-like values (counters, flags), so dirty
// lines get somewhat harder to compress without degenerating to random
// noise.
func (wv writeVersions) mutate(data []byte, addr uint64) {
	v := wv[addr]
	wv[addr] = v + 1
	word := int(addr^uint64(v)) % (len(data) / 4)
	x := uint32((addr*2654435761+uint64(v)*40503)&0x3FF | 1)
	data[word*4] = byte(x)
	data[word*4+1] = byte(x >> 8)
	data[word*4+2] = 0
	data[word*4+3] = 0
}

// writeVersionPool recycles the per-run write-version maps. A full run
// touches tens of thousands of addresses, so rebuilding the map each
// cell was a measurable slice of multichip sweep allocations.
var writeVersionPool = sync.Pool{
	New: func() interface{} { return make(writeVersions, 1<<12) },
}
