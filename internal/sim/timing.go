package sim

import (
	"container/heap"
	"fmt"

	"cable/internal/core"
	"cable/internal/dram"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/obs"
	"cable/internal/workload"
)

// TimingConfig parameterizes the cycle-approximate model behind the
// throughput (Fig 14), latency-overhead (Fig 17) and energy (Fig 18)
// studies. Following §VI-A, a group of Threads threads shares bandwidth
// competitively; the group's share of the system's links and DRAM
// scales with Threads/TotalThreads, so one simulated group represents
// the whole statistically-identical system.
type TimingConfig struct {
	Scheme    string // "none", "bdi", "cpack", "cpack128", "lbe256", "gzip", "cable"
	Benchmark string
	Threads   int // simulated group size (8 in the paper)
	TotalTh   int // system thread count (256..2048)
	// InstrPerTh is each thread's measured instruction budget. As many
	// instructions first run functionally (caches and CABLE structures
	// fill, no timing), mirroring the paper's 100M-instruction SimPoint
	// warm-up.
	InstrPerTh uint64

	CoreHz       float64 // 2 GHz in-order, 1 CPI non-memory
	Private      PrivateConfig
	LLCCycles    int     // 30
	L4Cycles     int     // 30
	LinkSetupNs  float64 // 20 ns
	TotalLinkBW  float64 // bytes/s across the whole system (4×19.2 GB/s)
	TotalDRAMBW  float64 // bytes/s across the whole system (16×12.8 GB/s)
	LLCPerThread int     // bytes (1 MB)
	L4Ratio      int     // L4 = ratio × LLC (4)
	// RequestBits sizes the address-phase request packet (line
	// address + way-replacement info + EvictSeq ack). Requests travel
	// the command path — separate wires on DMI/HMC-class buffer
	// links — so they add latency but do not occupy the data link
	// (Table IV models no request bandwidth).
	RequestBits int

	Link  link.Config
	Cable core.Config

	// OnOff enables the §VI-D adaptive control: compression is turned
	// off when link utilization sampled over 1 ms falls below 80% and
	// back on above 90%.
	OnOff bool
	// SampleWindowSec is the on/off control sampling period (§VI-D:
	// 1 ms). Scaled-down runs that simulate less wall time may lower
	// it proportionally.
	SampleWindowSec float64
	// Verify keeps bit-exact payload checking on.
	Verify bool
	// Fault configures deterministic corruption of the CABLE wire
	// images (see ChipConfig.Fault). Only meaningful when Scheme is
	// "cable"; the zero value injects nothing.
	Fault fault.Config
	// Metrics, when non-nil, scopes the simulation's obs counters to a
	// private registry (see MemLinkConfig.Metrics). Never affects
	// simulated results; excluded from content digests.
	Metrics *obs.Registry `digest:"-"`
	// Recorder, when non-nil, attaches a virtual-time flight recorder
	// to the underlying chip (warm-up accesses tick it too — the clock
	// stays a pure function of the access stream). Observation-only;
	// excluded from content digests.
	Recorder *obs.Recorder `digest:"-"`
}

// DefaultTimingConfig returns the Table IV system for one benchmark.
func DefaultTimingConfig(scheme, benchmark string) TimingConfig {
	return TimingConfig{
		Scheme: scheme, Benchmark: benchmark,
		Threads: 8, TotalTh: 2048, InstrPerTh: 2_000_000,
		CoreHz: 2e9, Private: DefaultPrivateConfig(),
		LLCCycles: 30, L4Cycles: 30, LinkSetupNs: 20,
		TotalLinkBW: 4 * 19.2e9, TotalDRAMBW: 4 * 4 * 12.8e9,
		LLCPerThread: 1 << 20, L4Ratio: 4,
		RequestBits: 48,
		Link:        link.DefaultConfig(),
		Cable:       core.DefaultConfig(),
	}
}

// compLatencies returns the Table IV compression/decompression
// latencies in core cycles for a scheme. CABLE is charged its worst
// case (32 = 16 search + 16 compress, plus 16 decompress), as in the
// paper's latency studies.
func compLatencies(scheme string) (comp, decomp int) {
	switch scheme {
	case "", "none":
		return 0, 0
	case "gzip":
		return 64, 32
	case "cable":
		return core.SearchLatencyWorst + core.CompressLatency/2, core.DecompressLatency
	default: // CPACK-class engines
		return 8, 8
	}
}

// TimingResult reports one timing simulation.
type TimingResult struct {
	Scheme       string
	IPCPerThread float64
	// Throughput is system instructions/cycle: TotalTh × IPC.
	Throughput float64
	Seconds    float64 // simulated time
	LinkUtil   float64
	Ratio      float64 // achieved compression ratio on the down link
	// Counters for the energy model.
	L1Accesses, L2Accesses                uint64
	LLCAccesses, L4Accesses, DRAMAccesses uint64
	WireBytes                             uint64
	CompOps, DecompOps, SearchReads       uint64
	// OffWindows counts 1 ms windows with compression disabled.
	OffWindows, OnWindows uint64
}

// threadState tracks one thread's progress.
type threadState struct {
	id    int
	gen   *workload.Generator
	priv  *privateHier
	time  float64 // seconds
	instr uint64
}

// threadHeap orders threads by local time.
type threadHeap []*threadState

func (h threadHeap) Len() int            { return len(h) }
func (h threadHeap) Less(i, j int) bool  { return h[i].time < h[j].time }
func (h threadHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *threadHeap) Push(x interface{}) { *h = append(*h, x.(*threadState)) }
func (h *threadHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RunTiming executes the cycle-approximate simulation.
func RunTiming(cfg TimingConfig) (*TimingResult, error) {
	if cfg.Threads <= 0 || cfg.TotalTh < cfg.Threads {
		return nil, fmt.Errorf("sim: bad thread counts %d/%d", cfg.Threads, cfg.TotalTh)
	}
	share := float64(cfg.Threads) / float64(cfg.TotalTh)

	chipCfg := ChipConfig{
		LLCBytes: cfg.LLCPerThread * cfg.Threads, LLCWays: 8,
		L4Bytes: cfg.LLCPerThread * cfg.Threads * cfg.L4Ratio, L4Ways: 16,
		LineSize: 64,
		Link:     cfg.Link,
		Cable:    cfg.Cable,
		Scheme:   cfg.Scheme,
		Verify:   cfg.Verify,
		Fault:    cfg.Fault,
		Metrics:  cfg.Metrics,
		Recorder: cfg.Recorder,
	}
	spec, err := workload.ByName(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	// Fit the working set to the simulated cache scale: at most ¾ of the
	// L4 share, preserving the paper's regime where the L4 absorbs most
	// post-LLC misses and the off-chip link — not DRAM — is the
	// bottleneck.
	l4Lines := cfg.LLCPerThread * cfg.L4Ratio / 64
	if cap := l4Lines * 3 / 4; spec.WorkingSetLines > cap {
		spec.WorkingSetLines = cap
	}
	llcLines := cfg.LLCPerThread / 64
	if cap := llcLines / 2; spec.HotLines > cap && cap > 0 {
		spec.HotLines = cap
	}
	gens := make([]*workload.Generator, cfg.Threads)
	for i := range gens {
		gens[i] = workload.NewFromSpecIn(spec, i, uint64(i)*programSpacing, cfg.Metrics)
	}
	chip, err := NewChip(chipCfg, func(addr uint64) []byte {
		return gens[int(addr/programSpacing)].LineData(addr)
	})
	if err != nil {
		return nil, err
	}

	// The group's links: duplex down (fills) and up (requests + WBs),
	// each carrying the group's share of total system link bandwidth.
	mkLink := func(bw float64) *link.Channel {
		c := cfg.Link
		c.FreqHz = bw * 8 / float64(c.WidthBits)
		return link.NewChannel(c)
	}
	// Links are full duplex (QPI/HyperTransport-style): each direction
	// carries the group's share of the stated bandwidth.
	down := mkLink(cfg.TotalLinkBW * share)
	up := mkLink(cfg.TotalLinkBW * share)
	// The group's DRAM share behind the L4.
	dcfg := dram.DefaultConfig()
	dcfg.BusFreqHz = cfg.TotalDRAMBW * share / float64(dcfg.BusWidthBits/8)
	dchan := dram.NewChannel(dcfg)

	comp, decomp := compLatencies(cfg.Scheme)
	cyc := 1 / cfg.CoreHz

	h := make(threadHeap, 0, cfg.Threads)
	allThreads := make([]*threadState, cfg.Threads)
	for i, g := range gens {
		allThreads[i] = &threadState{id: i, gen: g, priv: newPrivateHier(cfg.Private)}
	}

	// Functional warm-up: fill the private levels, shared hierarchy
	// and CABLE structures so measurement excludes compulsory cold
	// misses (the paper warms 100M instructions per SimPoint).
	for _, th := range allThreads {
		var instr uint64
		for instr < cfg.InstrPerTh {
			a := th.gen.Next()
			instr += uint64(a.Gap) + 1
			if lvl := th.priv.lookup(a.LineAddr); lvl == 0 || a.Write {
				chip.Access(a, th.id)
			}
		}
		th.priv.L1Accesses, th.priv.L2Accesses = 0, 0
	}
	chip.ResetStats()

	for _, th := range allThreads {
		heap.Push(&h, th)
	}

	res := &TimingResult{Scheme: cfg.Scheme}
	compressOn := true
	windowStart := 0.0
	window := cfg.SampleWindowSec
	if window <= 0 {
		window = 1e-3
	}
	var maxTime float64

	for h.Len() > 0 {
		th := heap.Pop(&h).(*threadState)
		a := th.gen.Next()
		th.time += float64(a.Gap) * cyc
		th.instr += uint64(a.Gap) + 1
		now := th.time

		// §VI-D on/off control, sampled on 1 ms boundaries.
		if cfg.OnOff && now-windowStart >= window {
			util := down.Utilization(now - windowStart)
			if compressOn && util < 0.80 {
				compressOn = false
			} else if !compressOn && util > 0.90 {
				compressOn = true
			}
			if compressOn {
				res.OnWindows++
			} else {
				res.OffWindows++
			}
			down.ResetWindow()
			windowStart = now
		}

		// Private L1/L2 filter (Table IV): read hits are absorbed at
		// private-level cost; stores write through so the shared-level
		// coherence (and CABLE synchronization) stays exact.
		level := th.priv.lookup(a.LineAddr)
		now += float64(cfg.Private.L1Cycles) * cyc
		if level >= 2 || level == 0 {
			now += float64(cfg.Private.L2Cycles) * cyc
		}
		if level != 0 && !a.Write {
			th.time = now
			if th.time > maxTime {
				maxTime = th.time
			}
			if th.instr < cfg.InstrPerTh {
				heap.Push(&h, th)
			}
			continue
		}

		tr := chip.Access(a, th.id)
		now += float64(cfg.LLCCycles) * cyc
		if !tr.LLCHit {
			// Request on the out-of-band command path: serialization
			// latency at the link rate, no data-channel occupancy.
			reqLat := float64(cfg.RequestBits) / (cfg.Link.FreqHz * float64(cfg.Link.WidthBits))
			now += reqLat + cfg.LinkSetupNs*1e-9
			now += float64(cfg.L4Cycles) * cyc
			if !tr.L4Hit {
				now = dchan.Access(now, a.LineAddr, 64)
			}
			fillBits := tr.FillBits
			c, d := comp, decomp
			if cfg.OnOff && !compressOn {
				fillBits = chip.WireLink().Flits(1+512) * cfg.Link.WidthBits
				c, d = 0, 0
			}
			now += float64(c) * cyc
			now = down.Transfer(now, fillBits)
			now += float64(d) * cyc
			if tr.WB {
				// Victim write-back occupies the up link but does
				// not block the requesting thread.
				up.Transfer(th.time, tr.WBBits)
			}
		}
		th.time = now
		if th.time > maxTime {
			maxTime = th.time
		}
		if th.instr < cfg.InstrPerTh {
			heap.Push(&h, th)
		}
	}

	// All threads ran the same instruction budget; the group IPC uses
	// the last finishing time (the paper keeps co-runners live until
	// all reach their budget).
	totalInstr := float64(cfg.InstrPerTh) * float64(cfg.Threads)
	totalIPC := totalInstr / (maxTime * cfg.CoreHz) / float64(cfg.Threads)

	res.IPCPerThread = totalIPC
	res.Throughput = totalIPC * float64(cfg.TotalTh)
	res.Seconds = maxTime
	res.LinkUtil = down.Utilization(maxTime)
	res.Ratio = chip.SchemeRatio().Value()
	for _, th := range allThreads {
		res.L1Accesses += th.priv.L1Accesses
		res.L2Accesses += th.priv.L2Accesses
	}
	res.LLCAccesses = chip.LLC.Stats.Accesses
	res.L4Accesses = chip.L4.Stats.Accesses + chip.L4.Stats.DataReads
	res.DRAMAccesses = chip.Store.Reads + chip.Store.Writes
	res.WireBytes = chip.WireLink().WireBits / 8
	res.CompOps = chip.CompOps
	res.DecompOps = chip.DecompOps
	res.SearchReads = chip.L4.Stats.DataReads
	// The result carries plain numbers only — recycle the run's chip
	// and private hierarchies for the next cell.
	for _, th := range allThreads {
		th.priv.release()
	}
	chip.Release()
	return res, nil
}
