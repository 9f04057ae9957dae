package sim

import (
	"errors"
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

// Every simulated cache holds the workload generators' lines (64 bytes,
// as in Table IV), and the shared LLC — each node's LLC, in the
// multichip study — is 8-way.
const (
	lineSize = workload.LineSize
	llcWays  = 8
)

// ChipConfig sizes a memory-link chip: an on-chip LLC (the remote
// cache) backed over a narrow off-chip link by a DRAM buffer L4 (the
// home cache, inclusive of the LLC — the Table IV configuration). Lines
// are lineSize bytes and the LLC is llcWays-way.
type ChipConfig struct {
	LLCBytes int
	L4Bytes  int
	L4Ways   int
	// LLCPolicy / L4Policy select replacement policies (LRU default).
	// CABLE's synchronization is policy-agnostic (§II-C).
	LLCPolicy cache.Policy
	L4Policy  cache.Policy
	Link      link.Config
	Cable     core.Config
	// Scheme selects the scheme under test, whose bits drive Transfer
	// reporting: "cable" runs the full CABLE protocol (home/remote
	// ends); "none", "bdi", "cpack", "cpack128", "lbe256" or "gzip"
	// move lines uncompressed between the caches and meter that
	// compressor instead. The timing simulator runs one scheme per
	// simulation this way.
	Scheme string
	// Verify decodes every CABLE payload and checks it bit-exact
	// against the home data. On by default; TestGoldenDrivers' Verify-off
	// rows pin that turning it off changes no result.
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
	Metrics *obs.Registry `digest:"-"`
	// Recorder, when non-nil, attaches a virtual-time flight recorder:
	// every access ticks it, and the CABLE link feeds a "cable" track
	// (transfers, encode/decode events, fault degradation). Never
	// affects simulated results; excluded from content digests.
	Recorder *obs.Recorder `digest:"-"`
}

// DefaultChipConfig returns the Table IV single-thread configuration:
// 1 MB LLC share, 4 MB L4 share (1:4), 16-bit 9.6 GHz link.
func DefaultChipConfig() ChipConfig {
	return ChipConfig{
		LLCBytes: 1 << 20,
		L4Bytes:  4 << 20,
		L4Ways:   16,
		Link:     link.DefaultConfig(),
		Cable:    core.DefaultConfig(),
		Scheme:   "cable",
		Verify:   true,
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

	// cable accumulates CABLE's ratios, as a meter does for its scheme.
	cable ownerRatios

	// writeVersions drives deterministic store-data mutation.
	writeVersions writeVersions

	// schemeMeter computes Transfer bits when CABLE is disabled.
	schemeMeter Meter

	// pair runs the protocol between the L4 (home) and the LLC (remote).
	// When CABLE is disabled it has no ends — Home == nil — and only
	// moves lines.
	pair *Pair
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
}

// NewChip builds a chip over the given backing content function.
func NewChip(cfg ChipConfig, fill func(lineAddr uint64) []byte) (*Chip, error) {
	// The chip-level registry scopes every sub-component's counters.
	cfg.Cable.Metrics = cfg.Metrics
	llcCfg := cache.Config{Name: "llc", SizeBytes: cfg.LLCBytes, Ways: llcWays, LineSize: lineSize, Policy: cfg.LLCPolicy}
	l4Cfg := cache.Config{Name: "l4", SizeBytes: cfg.L4Bytes, Ways: cfg.L4Ways, LineSize: lineSize, Policy: cfg.L4Policy}
	if err := errors.Join(llcCfg.Validate(), l4Cfg.Validate()); err != nil {
		return nil, err
	}
	llc, l4 := cache.New(llcCfg), cache.New(l4Cfg)
	if cfg.TagPointers {
		cfg.Cable.PointerBitsOverride = 40
	}
	c := &Chip{
		cfg: cfg, LLC: llc, L4: l4,
		Store:         mem.NewStore(lineSize, fill),
		writeVersions: writeVersionPool.Get().(writeVersions),
	}
	if cfg.Scheme == "cable" {
		c.CableLink = link.NewIn(cfg.Link, cfg.Metrics)
		// Fault injection targets the CABLE payload stream (the
		// baseline scheme meters never materialize wire images).
		pair, err := NewPair(l4, llc, PairConfig{
			Cable: cfg.Cable, Link: c.CableLink, Injector: fault.NewIn(cfg.Fault, cfg.Metrics),
			Verify: cfg.Verify, Silent: cfg.SilentEvictions,
			Recorder: cfg.Recorder, Track: "cable",
			degrade: &degradeCounters{reg: cfg.Metrics},
		})
		if err != nil {
			return nil, err
		}
		c.pair, c.Home, c.Remote, c.rec = pair, pair.Home, pair.Remote, cfg.Recorder
		return c, nil
	}
	m, err := newSchemeMeter(cfg.Scheme, cfg.Link, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	c.schemeMeter, c.pair = m, &Pair{HomeCache: l4, RemoteCache: llc}
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

// Release recycles the chip's caches, link-end table backings, backing
// store, write-version map and gzip windows into their pools (see
// internal/pool). Only callers that can prove nothing retains the chip
// may call it: the memoizing experiment runner releases chips after
// deep-copying their results (memoized results carry Chip == nil), and
// RunTiming releases its private chip before returning. A released chip
// is unusable.
func (c *Chip) Release() {
	c.pair.Release()
	c.Store.Release()
	clear(c.writeVersions)
	writeVersionPool.Put(c.writeVersions)
	if c.schemeMeter != nil {
		c.schemeMeter.Release()
	}
	releaseMeters(c.Meters)
	c.Home, c.Remote, c.writeVersions = nil, nil, nil
}

// ResetStats zeroes every accumulated counter — event counts, meter
// ratios and link accounting — without touching cache or CABLE
// structure state. The timing simulator calls it after functional
// warm-up so measurements exclude compulsory cold misses, as the
// paper's 100M-instruction warm-up does.
func (c *Chip) ResetStats() {
	c.Accesses, c.Fills, c.WBs, c.Upgrades = 0, 0, 0, 0
	c.CompOps, c.DecompOps, c.Notices = 0, 0, 0
	x := &c.pair.Xfer
	x.FaultsInjected, x.DecodeErrors, x.RawFallbacks = 0, 0, 0
	if x.Injector != nil {
		// Zero the accounting but keep the rng position: the fault
		// pattern stays one deterministic stream across warm-up and
		// measurement.
		x.Injector.Stats = fault.Stats{}
	}
	c.cable = ownerRatios{}
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
func (c *Chip) CableRatio(owner int) stats.Ratio { return c.cable.Ratio(owner) }

// CableTotal returns CABLE's aggregate ratio.
func (c *Chip) CableTotal() stats.Ratio { return c.cable.Total() }

// SchemeRatio returns the ratio of whatever scheme drives this chip's
// Transfer bits (CABLE or the configured baseline).
func (c *Chip) SchemeRatio() stats.Ratio {
	if c.Home != nil {
		return c.cable.Total()
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

// account folds one CABLE transfer of sourceBits into the chip's
// counters and the owner's ratio.
func (c *Chip) account(r TransferResult, sourceBits, owner int) {
	c.CompOps++
	if r.Decoded {
		c.DecompOps++
	}
	c.cable.add(owner, sourceBits, r.Wire)
}

// evictLLC processes an LLC eviction: dirty data is written back over
// the link and absorbed by the L4 copy; with CABLE on, the pair scrubs
// the eviction from both ends' structures.
func (c *Chip) evictLLC(ev cache.Eviction, owner int, t *Transfer) {
	wb, absorbed := c.pair.EvictRemote(ev)
	if ev.State == cache.Modified && !absorbed {
		panic(fmt.Sprintf("sim: inclusive violation: LLC victim %#x absent from L4", ev.LineAddr))
	}
	c.noteEviction(ev, wb, owner, t)
}

// noteEviction folds a processed LLC eviction and its write-back into
// the chip's counters, the access's Transfer and the meters.
func (c *Chip) noteEviction(ev cache.Eviction, wb TransferResult, owner int, t *Transfer) {
	if ev.State == cache.Modified {
		c.WBs++
		t.WB = true
		if c.Home != nil {
			t.WBBits = wb.Wire
			c.account(wb, len(ev.Data)*8, owner)
		} else {
			c.schemeMeter.OnWriteback(ev.Data, owner)
			t.WBBits = c.schemeMeter.LastWire()
		}
		for _, m := range c.Meters {
			m.OnWriteback(ev.Data, owner)
		}
	}
	if c.Home != nil && !c.cfg.SilentEvictions {
		c.Notices++
	}
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
				if c.Home != nil {
					c.pair.Upgrade(id, line.Data, a.LineAddr)
				}
				line.State = cache.Modified
			}
			c.writeVersions.mutate(line.Data, a.LineAddr)
		}
		return t
	}

	// The L4 line is installed before the LLC victim is chosen: an
	// inclusive back-invalidation lands in the fill's own set (same index
	// bits) and frees a way the fill then takes.
	l4Line, l4Hit, _, wroteBack := c.pair.EnsureHome(a.LineAddr, c.Store, func(victim uint64) {
		if ev, hit := c.LLC.Invalidate(victim); hit {
			c.evictLLC(ev, owner, &t)
		}
	})
	t.L4Hit = l4Hit
	if !l4Hit {
		t.DRAMReads++
	}
	if wroteBack {
		t.DRAMWrites++
	}

	way, victim, haveVictim := c.LLC.Victim(a.LineAddr)
	if haveVictim && !c.cfg.SilentEvictions {
		ev, _ := c.LLC.Invalidate(victim)
		c.evictLLC(ev, owner, &t)
	}
	// Under silent evictions the victim stays resident until the fill
	// installs (see Pair.Fill).

	state := cache.Shared
	if a.Write {
		state = cache.Modified
	}
	want := l4Line.Data
	t.Fill = true
	c.Fills++
	if c.Home != nil {
		r := c.pair.Fill(a.LineAddr, want, state, way)
		t.Latency = r.Latency
		t.FillBits = r.Wire
		c.account(r.TransferResult, len(want)*8, owner)
		if r.Victim.Data != nil {
			c.noteEviction(r.Victim, r.VictimWB, owner, &t)
		}
	} else {
		c.schemeMeter.OnFill(want, owner)
		t.FillBits = c.schemeMeter.LastWire()
		if haveVictim && c.cfg.SilentEvictions {
			ev, _ := c.LLC.Invalidate(victim)
			c.evictLLC(ev, owner, &t)
		}
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
