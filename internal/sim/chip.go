package sim

import (
	"fmt"

	"cable/internal/cache"
	"cable/internal/compress"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/mem"
	"cable/internal/obs"
	"cable/internal/stats"
	"cable/internal/workload"
)

// ChipConfig sizes a memory-link chip: an on-chip LLC (the remote
// cache) backed over a narrow off-chip link by a DRAM buffer L4 (the
// home cache, inclusive of the LLC — the Table IV configuration).
type ChipConfig struct {
	LLCBytes int
	LLCWays  int
	L4Bytes  int
	L4Ways   int
	LineSize int
	// LLCPolicy / L4Policy select replacement policies (LRU default).
	// CABLE's synchronization is policy-agnostic (§II-C).
	LLCPolicy cache.Policy
	L4Policy  cache.Policy
	Link      link.Config
	Cable     core.Config
	// EnableCable runs the full CABLE protocol (home/remote ends).
	EnableCable bool
	// Scheme selects the compressor whose bits drive Transfer
	// reporting when CABLE is disabled: "none", "bdi", "cpack",
	// "cpack128", "lbe256" or "gzip". The timing simulator runs one
	// scheme per simulation this way.
	Scheme string
	// Verify decodes every CABLE payload and checks it bit-exact
	// against the home data. Always on in tests; the pure-throughput
	// benches may disable it.
	Verify bool
	// TagPointers prices each reference at 40 tag bits instead of
	// RemoteLID width — the §III-D ablation quantifying what the WMT
	// buys.
	TagPointers bool
	// SilentEvictions enables the §IV-B protocol: clean LLC victims
	// send no eviction notice — the home cache learns of displacements
	// from the replacement-way info embedded in requests. Valid for
	// 1-1 home mappings (one DRAM buffer behind the LLC), as here.
	SilentEvictions bool
	// Fault configures deterministic corruption of the CABLE wire
	// images (bit flips, truncations). The zero value injects nothing
	// and leaves every code path byte-identical to a fault-free build;
	// a non-zero rate routes transfers through the guarded
	// marshal → corrupt → unmarshal → decode pipeline and degrades
	// failures to counted raw-transfer fallbacks.
	Fault fault.Config
	// Metrics, when non-nil, scopes this chip's obs counters (link
	// ends, links, scheme meter) to a private registry. Never affects
	// simulated results; excluded from content digests.
	Metrics *obs.Registry
	// Recorder, when non-nil, attaches a virtual-time flight recorder:
	// every access ticks it, and the CABLE link feeds a "cable" track
	// (transfers, encode/decode events, fault degradation). Never
	// affects simulated results; excluded from content digests.
	Recorder *obs.Recorder
}

// DefaultChipConfig returns the Table IV single-thread configuration:
// 1 MB LLC share, 4 MB L4 share (1:4), 16-bit 9.6 GHz link.
func DefaultChipConfig() ChipConfig {
	return ChipConfig{
		LLCBytes: 1 << 20, LLCWays: 8,
		L4Bytes: 4 << 20, L4Ways: 16,
		LineSize:    64,
		Link:        link.DefaultConfig(),
		Cable:       core.DefaultConfig(),
		EnableCable: true,
		Verify:      true,
	}
}

// Transfer reports what one access did, for the timing and energy
// models.
type Transfer struct {
	LLCHit  bool
	L4Hit   bool
	Fill    bool // an off-chip fill occurred
	WB      bool // an LLC victim was written back over the link
	Upgrade bool

	// FillBits / WBBits are CABLE wire bits for this access (raw line
	// bits when CABLE is disabled).
	FillBits int
	WBBits   int
	// DRAMReads/DRAMWrites are backing accesses triggered.
	DRAMReads  int
	DRAMWrites int
	// Latency is the CABLE pipeline cost of the fill.
	Latency core.FillLatency
}

// Chip is the functional memory-link model: it runs the full coherence
// and CABLE synchronization protocol over an inclusive LLC/L4 pair and
// feeds the identical off-chip transfer stream to every attached meter.
type Chip struct {
	cfg    ChipConfig
	LLC    *cache.Cache
	L4     *cache.Cache
	Home   *core.HomeEnd
	Remote *core.RemoteEnd
	Store  *mem.Store
	Meters []Meter

	// CableLink quantizes CABLE payloads (nil when disabled).
	CableLink *link.Link

	cableOwners map[int]*stats.Ratio
	cableTotal  stats.Ratio

	// writeVersions drives deterministic store-data mutation.
	writeVersions writeVersions

	// schemeMeter computes Transfer bits when CABLE is disabled.
	schemeMeter Meter

	// xfer carries every CABLE fill and write-back over CableLink (nil
	// when CABLE is disabled); it owns the fault injector and the
	// degradation accounting.
	xfer *LinkTransfer
	// rec feeds the optional flight recorder (nil = disabled).
	rec *obs.Recorder

	// Stats
	Accesses  uint64
	Fills     uint64
	WBs       uint64
	Upgrades  uint64
	CompOps   uint64
	DecompOps uint64
	// Notices counts explicit eviction messages (zero under the
	// silent-eviction protocol).
	Notices uint64
	// FaultsInjected / DecodeErrors / RawFallbacks mirror the link
	// transfer's degradation counts (see LinkTransfer) since the last
	// ResetStats.
	FaultsInjected uint64
	DecodeErrors   uint64
	RawFallbacks   uint64
}

// NewChip builds a chip over the given backing content function.
func NewChip(cfg ChipConfig, fill func(lineAddr uint64) []byte) (*Chip, error) {
	// The chip-level registry scopes every sub-component's counters.
	cfg.Cable.Metrics = cfg.Metrics
	llc := cache.New(cache.Config{Name: "llc", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays, LineSize: cfg.LineSize, Policy: cfg.LLCPolicy})
	l4 := cache.New(cache.Config{Name: "l4", SizeBytes: cfg.L4Bytes, Ways: cfg.L4Ways, LineSize: cfg.LineSize, Policy: cfg.L4Policy})
	c := &Chip{
		cfg: cfg, LLC: llc, L4: l4,
		Store:         mem.NewStore(cfg.LineSize, fill),
		cableOwners:   map[int]*stats.Ratio{},
		writeVersions: writeVersions{},
	}
	if cfg.TagPointers {
		cfg.Cable.PointerBitsOverride = 40
		c.cfg = cfg
	}
	if cfg.EnableCable || cfg.Scheme == "cable" {
		he, err := core.NewHomeEnd(cfg.Cable, l4, llc)
		if err != nil {
			return nil, err
		}
		re, err := core.NewRemoteEnd(cfg.Cable, llc)
		if err != nil {
			return nil, err
		}
		c.Home, c.Remote = he, re
		c.CableLink = link.NewIn(cfg.Link, cfg.Metrics)
		// Fault injection targets the CABLE payload stream (the
		// baseline scheme meters never materialize wire images).
		c.xfer = &LinkTransfer{
			Link: c.CableLink, Injector: fault.NewIn(cfg.Fault, cfg.Metrics),
			IdxBits: llc.IndexBits(), WayBits: llc.WayBits(), LineSize: cfg.LineSize,
			LIDBits: he.RemoteLIDBits(), Verify: cfg.Verify,
			degrade: &degradeCounters{reg: cfg.Metrics},
		}
		if cfg.Recorder != nil {
			c.rec = cfg.Recorder
			c.xfer.Recorder, c.xfer.Track = c.rec, c.rec.Track("cable")
			he.SetRecorder(c.rec, c.xfer.Track)
			re.SetRecorder(c.rec, c.xfer.Track)
		}
		return c, nil
	}
	m, err := newSchemeMeter(cfg.Scheme, cfg.Link, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	c.schemeMeter = m
	return c, nil
}

// newSchemeMeter builds the single-scheme compressor used by the timing
// simulator when CABLE is not the scheme under test.
func newSchemeMeter(scheme string, cfg link.Config, reg *obs.Registry) (Meter, error) {
	switch scheme {
	case "", "none":
		return NewRawMeterIn(cfg, reg), nil
	case "gzip":
		return NewStreamMeterIn("gzip", 32<<10, cfg, reg), nil
	default:
		e, err := compress.NewEngine(scheme)
		if err != nil {
			return nil, err
		}
		return NewEngineMeterIn(e, cfg, reg), nil
	}
}

// Release recycles the chip's caches and link-end table backings into
// their pools (see core/pool.go and cache/pool.go). Only callers that
// can prove nothing retains the chip may call it: the memoizing
// experiment runner releases chips after deep-copying their results
// (memoized results carry Chip == nil), and RunTiming releases its
// private chip before returning. A released chip is unusable.
func (c *Chip) Release() {
	if c.Home != nil {
		c.Home.Release()
		c.Home = nil
	}
	if c.Remote != nil {
		c.Remote.Release()
		c.Remote = nil
	}
	if c.LLC != nil {
		c.LLC.Release()
		c.LLC = nil
	}
	if c.L4 != nil {
		c.L4.Release()
		c.L4 = nil
	}
}

// ResetStats zeroes every accumulated counter — event counts, meter
// ratios and link accounting — without touching cache or CABLE
// structure state. The timing simulator calls it after functional
// warm-up so measurements exclude compulsory cold misses, as the
// paper's 100M-instruction warm-up does.
func (c *Chip) ResetStats() {
	c.Accesses, c.Fills, c.WBs, c.Upgrades = 0, 0, 0, 0
	c.CompOps, c.DecompOps, c.Notices = 0, 0, 0
	c.FaultsInjected, c.DecodeErrors, c.RawFallbacks = 0, 0, 0
	if c.xfer != nil {
		c.xfer.FaultsInjected, c.xfer.DecodeErrors, c.xfer.RawFallbacks = 0, 0, 0
		if c.xfer.Injector != nil {
			// Zero the accounting but keep the rng position: the fault
			// pattern stays one deterministic stream across warm-up and
			// measurement.
			c.xfer.Injector.Stats = fault.Stats{}
		}
	}
	c.cableOwners = map[int]*stats.Ratio{}
	c.cableTotal = stats.Ratio{}
	c.LLC.Stats = cache.Stats{}
	c.L4.Stats = cache.Stats{}
	c.Store.Reads, c.Store.Writes = 0, 0
	if c.CableLink != nil {
		*c.CableLink = *link.NewIn(c.cfg.Link, c.cfg.Metrics)
	}
	if c.schemeMeter != nil {
		c.schemeMeter.ResetCounters()
	}
	for _, m := range c.Meters {
		m.ResetCounters()
	}
}

// CableRatio returns CABLE's accumulated ratio for one owner.
func (c *Chip) CableRatio(owner int) stats.Ratio {
	if r := c.cableOwners[owner]; r != nil {
		return *r
	}
	return stats.Ratio{}
}

// CableTotal returns CABLE's aggregate ratio.
func (c *Chip) CableTotal() stats.Ratio { return c.cableTotal }

// SchemeRatio returns the ratio of whatever scheme drives this chip's
// Transfer bits (CABLE or the configured baseline).
func (c *Chip) SchemeRatio() stats.Ratio {
	if c.Home != nil {
		return c.cableTotal
	}
	return c.schemeMeter.Total()
}

// WireLink returns the quantizing link of the active scheme.
func (c *Chip) WireLink() *link.Link {
	if c.Home != nil {
		return c.CableLink
	}
	return c.schemeMeter.Link()
}

func (c *Chip) cableAccount(owner, sourceBits int, wire int) {
	if r := c.cableOwners[owner]; r != nil {
		r.Add(sourceBits, wire)
	} else {
		c.cableOwners[owner] = &stats.Ratio{SourceBits: uint64(sourceBits), WireBits: uint64(wire)}
	}
	c.cableTotal.Add(sourceBits, wire)
}

// send runs one encoded payload through the link transfer and folds
// what happened into the chip's counters and the owner's ratio.
func (c *Chip) send(p core.Payload, decode func(core.Payload) ([]byte, error), want []byte, lineAddr uint64, owner int) TransferResult {
	c.CompOps++
	r := c.xfer.Send(p, decode, want, lineAddr)
	if r.Decoded {
		c.DecompOps++
	}
	c.FaultsInjected, c.DecodeErrors, c.RawFallbacks = c.xfer.FaultsInjected, c.xfer.DecodeErrors, c.xfer.RawFallbacks
	c.cableAccount(owner, len(want)*8, r.Wire)
	return r
}

// evictLLC processes an LLC eviction: dirty data is write-back
// compressed over the link; either way the eviction is scrubbed from
// both ends' structures.
func (c *Chip) evictLLC(ev cache.Eviction, owner int, t *Transfer) {
	if ev.State == cache.Modified {
		c.WBs++
		t.WB = true
		if c.Remote != nil {
			p := c.Remote.EncodeWriteback(ev.Data)
			t.WBBits = c.send(p, c.Home.DecodeWriteback, ev.Data, ev.LineAddr, owner).Wire
		} else {
			c.schemeMeter.OnWriteback(ev.Data, owner)
			t.WBBits = c.schemeMeter.LastWire()
		}
		for _, m := range c.Meters {
			m.OnWriteback(ev.Data, owner)
		}
		// The home (L4) copy absorbs the dirty data.
		if l4l, _, ok := c.L4.Probe(ev.LineAddr); ok {
			copy(l4l.Data, ev.Data)
			l4l.State = cache.Modified
		} else {
			panic(fmt.Sprintf("sim: inclusive violation: LLC victim %#x absent from L4", ev.LineAddr))
		}
	}
	if c.Remote != nil {
		if c.cfg.SilentEvictions {
			c.Remote.OnSilentEviction(ev.ID, ev.Data)
		} else {
			seq := c.Remote.OnEviction(ev.ID, ev.Data)
			c.Home.OnRemoteEviction(ev.ID, seq)
			c.Notices++
		}
	}
}

// silentDisplace evicts a fill's victim under the silent protocol: it
// runs after the fill is decoded (the victim may have served as a
// reference) and immediately before the install that displaces it.
func (c *Chip) silentDisplace(victim uint64, haveVictim bool, owner int, t *Transfer) {
	if !c.cfg.SilentEvictions || !haveVictim {
		return
	}
	if ev, ok := c.LLC.Invalidate(victim); ok {
		c.evictLLC(ev, owner, t)
	}
}

// ensureL4 installs addr in the L4, evicting (and back-invalidating)
// as needed. It reports DRAM traffic into t.
func (c *Chip) ensureL4(addr uint64, owner int, t *Transfer) {
	if _, _, ok := c.L4.Probe(addr); ok {
		t.L4Hit = true
		return
	}
	idx := c.L4.IndexOf(addr)
	way := c.L4.VictimWay(idx)
	if victim, ok := c.L4.LineAddrOf(cache.LineID{Index: idx, Way: way}); ok {
		// Inclusive: force the LLC copy out first.
		if ev, hit := c.LLC.Invalidate(victim); hit {
			c.evictLLC(ev, owner, t)
		}
		if c.Home != nil {
			c.Home.OnHomeEviction(victim)
		}
		vl, _, _ := c.L4.Probe(victim)
		if vl.State == cache.Modified {
			c.Store.Write(victim, vl.Data)
			t.DRAMWrites++
		}
	}
	data := c.Store.Read(addr)
	t.DRAMReads++
	c.L4.InsertAt(addr, data, cache.Shared, way)
}

// Access runs one LLC-level reference through the hierarchy.
func (c *Chip) Access(a workload.Access, owner int) Transfer {
	c.Accesses++
	if c.rec != nil {
		// One access = one virtual-time tick: the recorder's clock is a
		// pure function of the access stream, never wall time.
		c.rec.Tick()
	}
	var t Transfer
	if line, id, ok := c.LLC.Access(a.LineAddr); ok {
		t.LLCHit = true
		if a.Write {
			if line.State == cache.Shared {
				t.Upgrade = true
				c.Upgrades++
				if c.Remote != nil {
					c.Remote.OnUpgrade(id, line.Data)
					c.Home.OnUpgrade(a.LineAddr)
				}
				line.State = cache.Modified
			}
			c.writeVersions.mutate(line.Data, a.LineAddr)
		}
		return t
	}

	c.ensureL4(a.LineAddr, owner, &t)

	idx := c.LLC.IndexOf(a.LineAddr)
	way := c.LLC.VictimWay(idx)
	victim, haveVictim := c.LLC.LineAddrOf(cache.LineID{Index: idx, Way: way})
	if haveVictim && !c.cfg.SilentEvictions {
		ev, _ := c.LLC.Invalidate(victim)
		c.evictLLC(ev, owner, &t)
	}
	// Under silent evictions the victim stays resident until the fill
	// installs — it may even serve as a reference for this very fill;
	// the home cleans its structures from the replacement-way info.

	state := cache.Shared
	if a.Write {
		state = cache.Modified
	}
	l4Line, _, _ := c.L4.Probe(a.LineAddr)
	want := l4Line.Data
	t.Fill = true
	c.Fills++
	if c.Home != nil {
		p, lat, err := c.Home.EncodeFill(a.LineAddr, state, way)
		if err != nil {
			// Encode runs against the sender's own structures; failure
			// here is a simulator invariant violation, not a link
			// fault, so it stays fatal regardless of cfg.Verify.
			panic(fmt.Sprintf("sim: encode fill %#x: %v", a.LineAddr, err))
		}
		t.Latency = lat
		r := c.send(p, c.Remote.DecodeFill, want, a.LineAddr, owner)
		t.FillBits = r.Wire
		c.silentDisplace(victim, haveVictim, owner, &t)
		c.LLC.InsertAt(a.LineAddr, r.Data, state, way)
		c.Remote.OnFillInstalled(cache.LineID{Index: idx, Way: way}, r.Data, state)
		c.Remote.OnAck(p.AckSeq)
	} else {
		c.schemeMeter.OnFill(want, owner)
		t.FillBits = c.schemeMeter.LastWire()
		c.silentDisplace(victim, haveVictim, owner, &t)
		c.LLC.InsertAt(a.LineAddr, want, state, way)
	}
	for _, m := range c.Meters {
		m.OnFill(want, owner)
	}
	if a.Write {
		l, _, _ := c.LLC.Probe(a.LineAddr)
		c.writeVersions.mutate(l.Data, a.LineAddr)
	}
	return t
}
