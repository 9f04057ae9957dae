package topo

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cable/internal/cache"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/mem"
	"cable/internal/obs"
	"cable/internal/sim"
	"cable/internal/stats"
)

// LinkStat is one directed link's outcome.
type LinkStat struct {
	// Name is "src->dst" (zero-padded); Src/Dst are the chip ids.
	Name     string
	Src, Dst int
	// Transfers counts every hop crossing (dictionary hits included);
	// Hits is the subset delivered as a header-only cache reference.
	Transfers, Hits uint64
	// SourceBits/WireBits are the pre/post-compression totals (wire
	// includes raw-resend recovery bits); Toggles counts wire bit
	// transitions on full-image transfers.
	SourceBits, WireBits, Toggles uint64
	// FaultsInjected/DecodeErrors/RawFallbacks account the per-link
	// degradation pipeline.
	FaultsInjected, DecodeErrors, RawFallbacks uint64
	// BusyCycles/QueueCycles come from the CABLE replay pass: wire
	// occupancy and total wire-queue waiting time. RawBusyCycles is
	// the raw baseline's occupancy of the same link.
	BusyCycles, RawBusyCycles, QueueCycles uint64
}

// Ratio is the link's compression ratio.
func (s *LinkStat) Ratio() float64 {
	if s.WireBits == 0 {
		return 1
	}
	return float64(s.SourceBits) / float64(s.WireBits)
}

// Result is one topology simulation's outcome. Plain data: safe to
// deep-copy and memoize.
type Result struct {
	Shape         string
	Chips, Links  int
	Width, Height int // mesh grid (0 for ring/star)

	// Accesses/LocalAccesses count generator draws and same-chip hits;
	// Messages is the number of injected cross-chip fills.
	Accesses, LocalAccesses, Messages uint64
	// LinkTransfers counts hop crossings; RemoteHits the header-only
	// subset.
	LinkTransfers, RemoteHits uint64
	FaultsInjected            uint64
	DecodeErrors              uint64
	RawFallbacks              uint64

	// Total aggregates compression across links.
	Total   stats.Ratio
	Toggles uint64

	// RawMakespan/CableMakespan are the two passes' completion times
	// in link cycles; their ratio is the bandwidth-relief speedup.
	RawMakespan, CableMakespan uint64

	PerLink []LinkStat
}

// Ratio returns the aggregate compression ratio.
func (r *Result) Ratio() float64 { return r.Total.Value() }

// Speedup is the raw/CABLE makespan ratio (>1 when compression
// relieves queueing).
func (r *Result) Speedup() float64 {
	if r.CableMakespan == 0 {
		return 1
	}
	return float64(r.RawMakespan) / float64(r.CableMakespan)
}

// MeanUtilization is the mean CABLE-pass wire occupancy across links.
func (r *Result) MeanUtilization() float64 {
	if r.CableMakespan == 0 || len(r.PerLink) == 0 {
		return 0
	}
	var busy uint64
	for i := range r.PerLink {
		busy += r.PerLink[i].BusyCycles
	}
	return float64(busy) / (float64(r.CableMakespan) * float64(len(r.PerLink)))
}

// topoCounters is the run-level obs set, registered up front in
// deterministic order. The degradation trio is registered only when
// fault injection is configured, so clean runs keep `-metrics` dumps
// byte-identical to a build without the fault layer.
type topoCounters struct {
	accesses, local, messages     *obs.Counter
	transfers, hits               *obs.Counter
	sourceBits, wireBits          *obs.Counter
	faults, decodeErrs, fallbacks *obs.Counter
	perLink                       []perLinkCounters
}

type perLinkCounters struct {
	transfers, hits, wireBits *obs.Counter
}

func topoMetricsIn(reg *obs.Registry, t *Topology, withFault bool) *topoCounters {
	if reg == nil {
		reg = obs.Default()
	}
	tc := &topoCounters{
		accesses:   reg.Counter("topo.accesses"),
		local:      reg.Counter("topo.local_accesses"),
		messages:   reg.Counter("topo.messages"),
		transfers:  reg.Counter("topo.link_transfers"),
		hits:       reg.Counter("topo.remote_hits"),
		sourceBits: reg.Counter("topo.source_bits"),
		wireBits:   reg.Counter("topo.wire_bits"),
	}
	if withFault {
		tc.faults = reg.Counter("topo.faults_injected")
		tc.decodeErrs = reg.Counter("topo.decode_errors")
		tc.fallbacks = reg.Counter("topo.raw_fallbacks")
	}
	// Per-link counters keyed by link ID ("topo.link.03_07.*"):
	// registered in link construction order so the name set — and
	// therefore every dump — is a pure function of the topology.
	tc.perLink = make([]perLinkCounters, len(t.links))
	for i, lm := range t.links {
		base := fmt.Sprintf("topo.link.%02d_%02d.", lm.src, lm.dst)
		tc.perLink[i] = perLinkCounters{
			transfers: reg.Counter(base + "transfers"),
			hits:      reg.Counter(base + "hits"),
			wireBits:  reg.Counter(base + "wire_bits"),
		}
	}
	return tc
}

// linkPipe is one directed link's private CABLE pipeline, alive only
// while its frozen transfer sequence is being encoded (pass 2).
type linkPipe struct {
	home, remote *cache.Cache
	he           *core.HomeEnd
	re           *core.RemoteEnd
	xfer         sim.LinkTransfer
	ctrlBits     int
}

func (e *engine) newLinkPipe(li int, reg *obs.Registry) (*linkPipe, error) {
	lm := e.topo.links[li]
	home := cache.New(cache.Config{
		Name: "topo-h" + lm.name, SizeBytes: e.cfg.HomeBytes, Ways: e.cfg.HomeWays, LineSize: 64,
	})
	remote := cache.New(cache.Config{
		Name: "topo-r" + lm.name, SizeBytes: e.cfg.RemoteBytes, Ways: e.cfg.RemoteWays, LineSize: 64,
	})
	cableCfg := e.cfg.Cable
	cableCfg.Metrics = reg
	he, err := core.NewHomeEnd(cableCfg, home, remote)
	if err != nil {
		return nil, err
	}
	re, err := core.NewRemoteEnd(cableCfg, remote)
	if err != nil {
		return nil, err
	}
	return &linkPipe{
		home: home, remote: remote, he: he, re: re,
		// The link's degradation counts reach the registry as topo.*
		// totals at the end of the run, not per event.
		xfer: sim.LinkTransfer{
			Link:     link.NewIn(e.cfg.Link, reg),
			Injector: fault.NewIn(linkFaultConfig(e.cfg.Fault, li), reg),
			IdxBits:  remote.IndexBits(), WayBits: remote.WayBits(), LineSize: 64,
			LIDBits: he.RemoteLIDBits(), Verify: e.cfg.Verify,
		},
		// A dictionary hit crosses the wire as a line reference plus a
		// small message header instead of data.
		ctrlBits: remote.LineIDBits() + 8,
	}, nil
}

// release recycles the pipeline's chip state through the shared pools
// (cache line backings, hash tables, way maps, encoder scratch).
func (p *linkPipe) release() {
	p.he.Release()
	p.re.Release()
	p.home.Release()
	p.remote.Release()
}

// encodeLink replays link li's frozen transfer sequence through its
// CABLE pipeline, filling the schedule's wireBits (and, when
// recording, toggle/fault sidecars) and the link's stat row. Links are
// fully independent: private caches, ends, link meter and injector, a
// worker-local backing store — so any assignment of links to workers
// produces identical bits.
func (e *engine) encodeLink(li int, p *linkPipe, store *mem.Store, st *LinkStat, recording bool) {
	s := e.sched
	addrs := s.linkAddrs[li]
	s.wireBits[li] = make([]int32, len(addrs))
	if recording {
		s.recToggles[li] = make([]uint32, len(addrs))
		s.recFlags[li] = make([]uint8, len(addrs))
	}
	for k, addr := range addrs {
		st.Transfers++
		st.SourceBits += 64 * 8

		// The link's home side always holds the line it is about to
		// send (it models the sender chip's copy).
		if _, _, ok := p.home.Probe(addr); !ok {
			idx := p.home.IndexOf(addr)
			way := p.home.VictimWay(idx)
			if victim, ok := p.home.LineAddrOf(cache.LineID{Index: idx, Way: way}); ok {
				p.he.OnHomeEviction(victim)
			}
			p.home.InsertAt(addr, store.Read(addr), cache.Shared, way)
		}

		// Dictionary hit: the receiving side of this link still holds
		// the line, so the transfer degenerates to a header-only
		// reference (the multi-hop payoff of a cache-based encoder).
		if _, _, ok := p.remote.Access(addr); ok {
			st.Hits++
			wire := p.xfer.Link.Send(p.ctrlBits)
			st.WireBits += uint64(wire)
			s.wireBits[li][k] = int32(wire)
			continue
		}

		// Full CABLE fill into the remote cache's victim way, with
		// explicit eviction notices (the §IV-B ack protocol).
		idx := p.remote.IndexOf(addr)
		way := p.remote.VictimWay(idx)
		if victim, ok := p.remote.LineAddrOf(cache.LineID{Index: idx, Way: way}); ok {
			ev, _ := p.remote.Invalidate(victim)
			seq := p.re.OnEviction(ev.ID, ev.Data)
			p.he.OnRemoteEviction(ev.ID, seq)
		}
		pay, _, err := p.he.EncodeFill(addr, cache.Shared, way)
		if err != nil {
			panic(fmt.Sprintf("topo: fill encode %#x on %s: %v", addr, st.Name, err))
		}
		want, _, _ := p.home.Probe(addr)
		r := p.xfer.Send(pay, p.re.DecodeFill, want.Data, addr)
		st.WireBits += uint64(r.Wire)
		st.Toggles += r.Toggles
		if recording {
			s.recToggles[li][k] = uint32(r.Toggles)
			if r.Faulted {
				s.recFlags[li][k] |= flagFault
			}
			if r.Degraded {
				s.recFlags[li][k] |= flagDegrade
			}
		}
		s.wireBits[li][k] = int32(r.Wire)
		p.remote.InsertAt(addr, r.Data, cache.Shared, way)
		p.re.OnFillInstalled(cache.LineID{Index: idx, Way: way}, r.Data, cache.Shared)
		p.re.OnAck(pay.AckSeq)
	}
	st.FaultsInjected, st.DecodeErrors, st.RawFallbacks = p.xfer.FaultsInjected, p.xfer.DecodeErrors, p.xfer.RawFallbacks
}

// Run executes one topology simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t, err := buildTopology(cfg.Shape, cfg.Chips)
	if err != nil {
		return nil, err
	}
	tc := topoMetricsIn(cfg.Metrics, t, cfg.Fault.Enabled())
	shard := obs.NextShard()

	// Pass 1 — schedule: the per-chip injection feed (live arrival
	// processes, a workload mix, or recorded captures) through the raw
	// baseline, freezing each link's transfer sequence.
	feed, err := newInjectFeed(cfg)
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, t)
	recording := cfg.Recorder != nil
	e.sched.wireBits = make([][]int32, len(t.links))
	if recording {
		e.sched.recToggles = make([][]uint32, len(t.links))
		e.sched.recFlags = make([][]uint8, len(t.links))
	}
	rawPass, err := e.simulate(true, feed, nil, nil)
	if err != nil {
		return nil, err
	}

	// Pass 2 — encode: partition links across a bounded worker pool.
	// Each worker owns a backing store over the shared pure content
	// function (line bytes are a function of the address alone, so
	// worker-local stores are consistent by construction) and recycles
	// one link's chip state into the pools before starting the next.
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(t.links) {
		workers = len(t.links)
	}
	perLink := make([]LinkStat, len(t.links))
	for i, lm := range t.links {
		perLink[i] = LinkStat{Name: lm.name, Src: int(lm.src), Dst: int(lm.dst)}
	}
	newContent := newContentFactory(cfg)
	errs := make([]error, len(t.links))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The content function's line-cache traffic depends on which
			// links this worker happens to claim — an artifact of the
			// partition, not of the simulated system — so it reports into
			// a throwaway registry to keep metric dumps identical at any
			// parallelism.
			content, gerr := newContent()
			if gerr != nil {
				// Claim links so the pool still drains; each claimed
				// link reports the construction error.
				for {
					li := int(next.Add(1)) - 1
					if li >= len(t.links) {
						return
					}
					errs[li] = gerr
				}
			}
			store := mem.NewStore(64, content)
			for {
				li := int(next.Add(1)) - 1
				if li >= len(t.links) {
					return
				}
				pipe, perr := e.newLinkPipe(li, cfg.Metrics)
				if perr != nil {
					errs[li] = perr
					continue
				}
				e.encodeLink(li, pipe, store, &perLink[li], recording)
				pipe.release()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Pass 3 — replay: identical event discipline, compressed wire
	// costs, flight windows sealed at wire-completion virtual times.
	var tracks []*obs.Track
	if recording {
		tracks = make([]*obs.Track, len(t.links))
		for i, lm := range t.links {
			tracks[i] = cfg.Recorder.Track("link" + lm.name)
		}
	}
	cablePass, err := e.simulate(false, nil, cfg.Recorder, tracks)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Shape: cfg.Shape, Chips: cfg.Chips, Links: len(t.links),
		Width: t.w, Height: t.h,
		Accesses:      e.sched.accesses,
		LocalAccesses: e.sched.local,
		Messages:      uint64(len(e.sched.msgAddr)),
		RawMakespan:   rawPass.makespan,
		CableMakespan: cablePass.makespan,
		PerLink:       perLink,
	}
	for i := range perLink {
		st := &res.PerLink[i]
		st.BusyCycles = cablePass.busy[i]
		st.RawBusyCycles = rawPass.busy[i]
		st.QueueCycles = cablePass.queueWait[i]
		res.LinkTransfers += st.Transfers
		res.RemoteHits += st.Hits
		res.FaultsInjected += st.FaultsInjected
		res.DecodeErrors += st.DecodeErrors
		res.RawFallbacks += st.RawFallbacks
		res.Toggles += st.Toggles
		res.Total.Add(int(st.SourceBits), int(st.WireBits))
		tc.perLink[i].transfers.Add(shard, st.Transfers)
		tc.perLink[i].hits.Add(shard, st.Hits)
		tc.perLink[i].wireBits.Add(shard, st.WireBits)
	}
	tc.accesses.Add(shard, res.Accesses)
	tc.local.Add(shard, res.LocalAccesses)
	tc.messages.Add(shard, res.Messages)
	tc.transfers.Add(shard, res.LinkTransfers)
	tc.hits.Add(shard, res.RemoteHits)
	tc.sourceBits.Add(shard, res.Total.SourceBits)
	tc.wireBits.Add(shard, res.Total.WireBits)
	if tc.faults != nil {
		tc.faults.Add(shard, res.FaultsInjected)
		tc.decodeErrs.Add(shard, res.DecodeErrors)
		tc.fallbacks.Add(shard, res.RawFallbacks)
	}
	return res, nil
}
