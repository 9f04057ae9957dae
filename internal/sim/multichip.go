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
	"cable/internal/trace"
)

// MultiChipConfig drives the coherence-link study (§V-B, Fig 13): a
// NUMA system whose memory pages are interleaved round-robin across
// nodes. The benchmark runs on node 0; lines homed on other nodes cross
// a point-to-point coherence link with one CABLE pipeline per link pair.
type MultiChipConfig struct {
	Nodes     int // 4 in the paper, 2–8 in the NUMA-count study
	Benchmark string
	Accesses  int
	// PageLines is the interleaving granularity (4 KB pages = 64
	// lines).
	PageLines uint64
	// LLCBytes sizes each node's LLC (the requester's remote cache
	// and each home node's home cache).
	LLCBytes int
	LLCWays  int
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
	Recorder *obs.Recorder
	// Replay, when non-nil, feeds a recorded capture instead of the
	// live Benchmark generator (mutually exclusive with Benchmark).
	// Behavioral, so folded into the digest.
	Replay *trace.Trace
}

// DefaultMultiChipConfig is the paper's 4-node setup.
func DefaultMultiChipConfig(benchmark string) MultiChipConfig {
	cable := core.DefaultConfig()
	// §VI-A: coherence-link hash tables are quarter-sized.
	cable.HashSizeFactor = 0.25
	return MultiChipConfig{
		Nodes: 4, Benchmark: benchmark, Accesses: 60000,
		PageLines: 64,
		LLCBytes:  1 << 20, LLCWays: 8,
		Link:       link.DefaultConfig(),
		Cable:      cable,
		WithMeters: true,
		Verify:     true,
	}
}

// coherenceLink is one node-pair CABLE pipeline: requester node 0's LLC
// is the remote cache; home node h's LLC is the home cache.
type coherenceLink struct {
	homeLLC *cache.Cache
	he      *core.HomeEnd
	re      *core.RemoteEnd
	// xfer carries this pair's fills and write-backs; its Track is the
	// link's flight-recorder track (nil when recording is off).
	xfer   *LinkTransfer
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

// RunMultiChip executes the functional 4-chip coherence simulation.
func RunMultiChip(cfg MultiChipConfig) (*MultiChipResult, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("sim: multichip needs ≥2 nodes, got %d", cfg.Nodes)
	}
	src, err := newSingleSource(cfg.Benchmark, cfg.Replay, cfg.Accesses)
	if err != nil {
		return nil, err
	}
	store := mem.NewStore(64, src.LineData)
	home := func(addr uint64) int { return int((addr / cfg.PageLines) % uint64(cfg.Nodes)) }

	reqLLC := cache.New(cache.Config{Name: "llc0", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays, LineSize: 64})
	cableCfg := cfg.Cable
	var pool *core.SuperWMT
	var geom *cache.Cache
	if cfg.PooledWMT {
		cableCfg.WritebackCompression = false
		factor := cfg.PooledWMTFactor
		if factor <= 0 {
			factor = 0.5
		}
		geom = cache.New(cache.Config{Name: "geom", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays, LineSize: 64})
		pool = core.NewSuperWMT(int(float64(geom.NumLines())*factor), 4, geom, reqLLC)
	}
	links := make([]*coherenceLink, cfg.Nodes) // index by home node; [0] unused
	rec := cfg.Recorder
	// One injector covers every link in access order, and one counter
	// block every link's degradations.
	injector := fault.New(cfg.Fault)
	degrade := &degradeCounters{}
	for h := 1; h < cfg.Nodes; h++ {
		homeLLC := cache.New(cache.Config{Name: fmt.Sprintf("llc%d", h), SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays, LineSize: 64})
		var wm core.WayMap
		if pool != nil {
			wm = pool.View(h)
		}
		he, err := core.NewHomeEndWithWayMap(cableCfg, homeLLC, reqLLC, wm)
		if err != nil {
			return nil, err
		}
		re, err := core.NewRemoteEnd(cableCfg, reqLLC)
		if err != nil {
			return nil, err
		}
		cl := &coherenceLink{homeLLC: homeLLC, he: he, re: re, xfer: &LinkTransfer{
			Link: link.New(cfg.Link), Injector: injector,
			IdxBits: reqLLC.IndexBits(), WayBits: reqLLC.WayBits(), LineSize: 64,
			LIDBits: he.RemoteLIDBits(), Verify: cfg.Verify, degrade: degrade,
		}}
		if cfg.WithMeters {
			cl.meters = DefaultMeters(cfg.Link)
		}
		if rec != nil {
			cl.xfer.Recorder, cl.xfer.Track = rec, rec.Track(fmt.Sprintf("link%d", h))
			he.SetRecorder(rec, cl.xfer.Track)
			re.SetRecorder(rec, cl.xfer.Track)
		}
		links[h] = cl
	}
	res := &MultiChipResult{Total: map[string]stats.Ratio{}}
	versions := writeVersionPool.Get().(writeVersions)

	// evictReq processes a requester-LLC eviction, routing the
	// notices (and a dirty write-back) to the owning home node.
	evictReq := func(ev cache.Eviction) {
		h := home(ev.LineAddr)
		if h == 0 {
			if ev.State == cache.Modified {
				store.Write(ev.LineAddr, ev.Data)
			}
			return
		}
		cl := links[h]
		if ev.State == cache.Modified {
			res.DirtyWBs++
			p := cl.re.EncodeWriteback(ev.Data)
			r := cl.xfer.Send(p, cl.he.DecodeWriteback, ev.Data, ev.LineAddr)
			cl.ratio.Add(len(ev.Data)*8, r.Wire)
			for _, m := range cl.meters {
				m.OnWriteback(ev.Data, 0)
			}
			// The home copy absorbs the requester's dirty data (what
			// the decode reconstructed, or the raw retry delivered).
			if hl, _, ok := cl.homeLLC.Probe(ev.LineAddr); ok {
				copy(hl.Data, ev.Data)
				hl.State = cache.Modified
			} else {
				panic(fmt.Sprintf("sim: multichip inclusivity violated for %#x", ev.LineAddr))
			}
		}
		seq := cl.re.OnEviction(ev.ID, ev.Data)
		cl.he.OnRemoteEviction(ev.ID, seq)
	}

	// ensureHomeLLC installs addr in its home node's LLC, handling the
	// inclusive back-invalidation of the requester's copy.
	ensureHomeLLC := func(cl *coherenceLink, addr uint64) {
		if _, _, ok := cl.homeLLC.Probe(addr); ok {
			return
		}
		idx := cl.homeLLC.IndexOf(addr)
		way := cl.homeLLC.VictimWay(idx)
		if victim, ok := cl.homeLLC.LineAddrOf(cache.LineID{Index: idx, Way: way}); ok {
			if ev, hit := reqLLC.Invalidate(victim); hit {
				evictReq(ev)
			}
			cl.he.OnHomeEviction(victim)
			if vl, _, _ := cl.homeLLC.Probe(victim); vl.State == cache.Modified {
				store.Write(victim, vl.Data)
			}
		}
		cl.homeLLC.InsertAt(addr, store.Read(addr), cache.Shared, way)
	}

	for i := 0; i < cfg.Accesses; i++ {
		if rec != nil {
			rec.Tick()
		}
		a, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("sim: access %d: %w", i, err)
		}
		h := home(a.LineAddr)
		if line, id, ok := reqLLC.Access(a.LineAddr); ok {
			if a.Write && line.State == cache.Shared {
				if h != 0 {
					links[h].re.OnUpgrade(id, line.Data)
					links[h].he.OnUpgrade(a.LineAddr)
				}
				line.State = cache.Modified
			}
			if a.Write {
				versions.mutate(line.Data, a.LineAddr)
			}
			continue
		}
		// Requester miss: evict the victim first.
		idx := reqLLC.IndexOf(a.LineAddr)
		way := reqLLC.VictimWay(idx)
		if victim, ok := reqLLC.LineAddrOf(cache.LineID{Index: idx, Way: way}); ok {
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
			if a.Write {
				l, _, _ := reqLLC.Probe(a.LineAddr)
				versions.mutate(l.Data, a.LineAddr)
			}
			continue
		}
		cl := links[h]
		ensureHomeLLC(cl, a.LineAddr)
		res.RemoteFills++
		p, _, err := cl.he.EncodeFill(a.LineAddr, state, way)
		if err != nil {
			// Encode failure is a sender-side invariant violation, not
			// a link fault: always fatal.
			panic(fmt.Sprintf("sim: multichip fill %#x: %v", a.LineAddr, err))
		}
		want, _, _ := cl.homeLLC.Probe(a.LineAddr)
		r := cl.xfer.Send(p, cl.re.DecodeFill, want.Data, a.LineAddr)
		cl.ratio.Add(len(want.Data)*8, r.Wire)
		for _, m := range cl.meters {
			m.OnFill(want.Data, 0)
		}
		reqLLC.InsertAt(a.LineAddr, r.Data, state, way)
		cl.re.OnFillInstalled(cache.LineID{Index: idx, Way: way}, r.Data, state)
		cl.re.OnAck(p.AckSeq)
		if a.Write {
			l, _, _ := reqLLC.Probe(a.LineAddr)
			versions.mutate(l.Data, a.LineAddr)
		}
	}

	var cableTotal stats.Ratio
	meterTotals := map[string]*stats.Ratio{}
	for h := 1; h < cfg.Nodes; h++ {
		cableTotal.Merge(links[h].ratio)
		res.FaultsInjected += links[h].xfer.FaultsInjected
		res.DecodeErrors += links[h].xfer.DecodeErrors
		res.RawFallbacks += links[h].xfer.RawFallbacks
		for _, m := range links[h].meters {
			if t, ok := meterTotals[m.Name()]; ok {
				tt := m.Total()
				t.Merge(tt)
			} else {
				tt := m.Total()
				meterTotals[m.Name()] = &tt
			}
		}
	}
	res.Total["cable"] = cableTotal
	for name, t := range meterTotals {
		res.Total[name] = *t
	}

	// Recycle the run's directory state: the write-version map returns to
	// its pool and every cache backing and CABLE-end table goes back to
	// the shared pools, so sweeps that run many multichip cells stop
	// re-growing the same multi-megabyte allocations per cell.
	clear(versions)
	writeVersionPool.Put(versions)
	for h := 1; h < cfg.Nodes; h++ {
		links[h].he.Release()
		links[h].re.Release()
		links[h].homeLLC.Release()
	}
	reqLLC.Release()
	if geom != nil {
		geom.Release()
	}
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
