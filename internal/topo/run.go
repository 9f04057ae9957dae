package topo

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cable/internal/cache"
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

// publish adds the run's totals to the registry (nil: the process
// default) as topo.* counters, per-link ones keyed by link ID
// ("topo.link.03_07.*"), so the name set is a pure function of the
// topology. The degradation trio is registered only when fault injection
// is configured: clean runs keep `-metrics` dumps byte-identical to a
// build without the fault layer.
func (r *Result) publish(reg *obs.Registry, withFault bool) {
	shard := obs.NextShard()
	add := func(name string, v uint64) { reg.Counter(name).Add(shard, v) }
	add("topo.accesses", r.Accesses)
	add("topo.local_accesses", r.LocalAccesses)
	add("topo.messages", r.Messages)
	add("topo.link_transfers", r.LinkTransfers)
	add("topo.remote_hits", r.RemoteHits)
	add("topo.source_bits", r.Total.SourceBits)
	add("topo.wire_bits", r.Total.WireBits)
	if withFault {
		add("topo.faults_injected", r.FaultsInjected)
		add("topo.decode_errors", r.DecodeErrors)
		add("topo.raw_fallbacks", r.RawFallbacks)
	}
	for i := range r.PerLink {
		st := &r.PerLink[i]
		base := fmt.Sprintf("topo.link.%02d_%02d.", st.Src, st.Dst)
		add(base+"transfers", st.Transfers)
		add(base+"hits", st.Hits)
		add(base+"wire_bits", st.WireBits)
	}
}

// newLinkPair builds directed link li's private CABLE pipeline, alive
// only while its frozen transfer sequence is being encoded (pass 2).
// The link's degradation counts reach the registry as topo.* totals at
// the end of the run, not per event.
func (e *engine) newLinkPair(li int, reg *obs.Registry) (*sim.Pair, error) {
	lm := e.topo.links[li]
	hc, rc := e.cfg.caches(lm.name)
	home, remote := cache.New(hc), cache.New(rc)
	cableCfg := e.cfg.Cable
	cableCfg.Metrics = reg
	return sim.NewPair(home, remote, sim.PairConfig{
		Cable:    cableCfg,
		Link:     link.NewIn(e.cfg.Link, reg),
		Injector: fault.NewIn(linkFaultConfig(e.cfg.Fault, li), reg),
		Verify:   e.cfg.Verify,
	})
}

// encodeLink replays link li's frozen transfer sequence through its
// pair, filling the schedule's wireBits (and, when recording,
// toggle/fault sidecars) and the link's stat row. The engine's policy
// over the pair's steps: read-only Shared fills with explicit eviction
// notices (the §IV-B ack protocol), a home side that always holds the
// line it sends, and a header-only transfer when the receiver still
// holds it. Links are fully independent: private caches, ends, link
// meter and injector, a worker-local backing store — so any assignment
// of links to workers produces identical bits.
func (e *engine) encodeLink(li int, p *sim.Pair, store *mem.Store, st *LinkStat, recording bool) {
	s := e.sched
	addrs := s.linkAddrs[li]
	s.wireBits[li] = make([]int32, len(addrs))
	if recording {
		s.recToggles[li] = make([]uint32, len(addrs))
		s.recFlags[li] = make([]uint8, len(addrs))
	}
	// A dictionary hit crosses the wire as a line reference plus a
	// small message header instead of data.
	ctrlBits := p.RemoteCache.LineIDBits() + 8
	for k, addr := range addrs {
		st.Transfers++
		st.SourceBits += 64 * 8

		// The link's home side models the sender chip's copy.
		line, _, _, _ := p.EnsureHome(addr, store, nil)

		// Dictionary hit: the receiving side of this link still holds
		// the line, so the transfer degenerates to a header-only
		// reference (the multi-hop payoff of a cache-based encoder).
		if _, _, ok := p.RemoteCache.Access(addr); ok {
			st.Hits++
			wire := p.Xfer.Link.Send(ctrlBits)
			st.WireBits += uint64(wire)
			s.wireBits[li][k] = int32(wire)
			continue
		}

		way, victim, ok := p.RemoteCache.Victim(addr)
		if ok {
			ev, _ := p.RemoteCache.Invalidate(victim)
			p.EvictRemote(ev)
		}
		r := p.Fill(addr, line.Data, cache.Shared, way)
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
	}
	st.FaultsInjected, st.DecodeErrors, st.RawFallbacks = p.Xfer.FaultsInjected, p.Xfer.DecodeErrors, p.Xfer.RawFallbacks
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
	// one link's chip state into the pools before starting the next; the
	// stores follow once every link is encoded.
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
	// Each worker fills its own store, so how many lines the content
	// function materializes depends on which links a worker happens to
	// claim — an artifact of the partition, not of the simulated system —
	// so each reports into a throwaway registry to keep metric dumps
	// identical at any parallelism.
	newContent := newContentFactory(cfg)
	stores := make([]*mem.Store, workers)
	for w := range stores {
		content, err := newContent()
		if err != nil {
			return nil, err
		}
		stores[w] = mem.NewStore(64, content)
	}
	errs := make([]error, len(t.links))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, store := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				li := int(next.Add(1)) - 1
				if li >= len(t.links) {
					return
				}
				pair, perr := e.newLinkPair(li, cfg.Metrics)
				if perr != nil {
					errs[li] = perr
					continue
				}
				e.encodeLink(li, pair, store, &perLink[li], recording)
				pair.Release()
			}
		}()
	}
	wg.Wait()
	for _, store := range stores {
		store.Release()
	}
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
	}
	res.publish(cfg.Metrics, cfg.Fault.Enabled())
	return res, nil
}
