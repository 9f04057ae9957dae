// Package sim ties the substrates together: a functional memory-link
// simulator (LLC + off-chip L4 + CABLE + baseline compressors measuring
// the same traffic), a multi-chip NUMA coherence simulator, and a
// cycle-approximate timing model for the throughput/latency studies.
package sim

import (
	"cable/internal/compress"
	"cable/internal/link"
	"cable/internal/obs"
	"cable/internal/stats"
)

// Meter measures one compression scheme over the off-chip transfer
// stream. All meters see the identical fill/write-back data that CABLE
// compresses, so per-scheme ratios are directly comparable (Fig 11/12).
type Meter interface {
	Name() string
	// OnFill accounts a home→remote data transfer by owner (program
	// index, for the multiprogram studies).
	OnFill(data []byte, owner int)
	// OnWriteback accounts a remote→home dirty transfer.
	OnWriteback(data []byte, owner int)
	// Ratio returns the accumulated compression ratio for one owner.
	Ratio(owner int) stats.Ratio
	// Total returns the aggregate ratio across owners.
	Total() stats.Ratio
	// Link exposes the meter's quantizing link (toggles, wire bits).
	Link() *link.Link
	// LastWire returns the on-wire bits of the most recent transfer,
	// which the timing simulator serializes over its channel.
	LastWire() int
	// ResetCounters zeroes accumulated ratios and link accounting
	// while keeping compressor state (a gzip window survives — only
	// the bookkeeping restarts after warm-up).
	ResetCounters()
	// Release recycles the meter's compressor state (a gzip window)
	// once its owner is done with it; the meter is unusable afterwards.
	Release()
}

// ownerRatios accumulates one scheme's compression ratio per owner and
// in total.
type ownerRatios struct {
	owners map[int]*stats.Ratio
	total  stats.Ratio
}

func (o *ownerRatios) add(owner, sourceBits, wireBits int) {
	if r := o.owners[owner]; r != nil {
		r.Add(sourceBits, wireBits)
	} else {
		if o.owners == nil {
			o.owners = map[int]*stats.Ratio{}
		}
		o.owners[owner] = &stats.Ratio{SourceBits: uint64(sourceBits), WireBits: uint64(wireBits)}
	}
	o.total.Add(sourceBits, wireBits)
}

// Ratio returns the accumulated ratio for one owner.
func (o *ownerRatios) Ratio(owner int) stats.Ratio {
	if r := o.owners[owner]; r != nil {
		return *r
	}
	return stats.Ratio{}
}

// Total returns the aggregate ratio across owners.
func (o *ownerRatios) Total() stats.Ratio { return o.total }

// meterBase implements the bookkeeping shared by meters.
type meterBase struct {
	ownerRatios
	name     string
	lnk      *link.Link
	reg      *obs.Registry // nil = process-default
	lastWire int
	// scr is the meter's own compression scratch. Each transfer's
	// Encoded aliases it and is consumed by account before the next
	// Compress, so nothing may retain one across transfers.
	scr compress.Scratch

	mx    simCounters
	shard uint32
}

func newMeterBaseIn(name string, cfg link.Config, reg *obs.Registry) meterBase {
	m := meterBase{name: name, lnk: link.NewIn(cfg, reg), reg: reg}
	m.mx, m.shard = simMetricsIn(reg)
	return m
}

func (m *meterBase) Name() string { return m.name }

func (m *meterBase) Link() *link.Link { return m.lnk }

func (m *meterBase) account(owner, sourceBits, payloadBits int, wire compress.Encoded) {
	m.mx.meterTransfers.Inc(m.shard)
	m.mx.meterSourceBits.Add(m.shard, uint64(sourceBits))
	wireBits := m.lnk.SendWire(wire.Data, payloadBits)
	m.lastWire = wireBits
	m.add(owner, sourceBits, wireBits)
}

func (m *meterBase) LastWire() int { return m.lastWire }

func (m *meterBase) ResetCounters() {
	cfg := m.lnk.Config()
	*m.lnk = *link.NewIn(cfg, m.reg)
	m.ownerRatios = ownerRatios{}
	m.lastWire = 0
}

// Release implements Meter: only a streaming meter holds state worth
// recycling.
func (m *meterBase) Release() {}

// RawMeter is the uncompressed baseline: every transfer is a full line.
type RawMeter struct{ meterBase }

// NewRawMeterIn builds the no-compression baseline meter, its counters
// in reg (nil: the process default, as for every meter constructor).
func NewRawMeterIn(cfg link.Config, reg *obs.Registry) *RawMeter {
	return &RawMeter{newMeterBaseIn("none", cfg, reg)}
}

// OnFill implements Meter.
func (m *RawMeter) OnFill(data []byte, owner int) {
	m.account(owner, len(data)*8, len(data)*8, compress.Encoded{Data: data, NBits: len(data) * 8})
}

// OnWriteback implements Meter.
func (m *RawMeter) OnWriteback(data []byte, owner int) { m.OnFill(data, owner) }

// EngineMeter measures a per-line engine (BDI, CPACK, CPACK128,
// LBE256): each transfer is compressed independently. These engines are
// self-delimiting with bounded worst-case expansion (C-Pack: 34/32 bits
// per word), so no flag or raw fallback is transmitted — unlike CABLE,
// whose payload carries the §III-E header.
type EngineMeter struct {
	meterBase
	engine compress.Engine
}

// NewEngineMeterIn wraps a per-line engine.
func NewEngineMeterIn(e compress.Engine, cfg link.Config, reg *obs.Registry) *EngineMeter {
	return &EngineMeter{meterBase: newMeterBaseIn(e.Name(), cfg, reg), engine: e}
}

// measure calls the engine directly, not through compress.CompressWith:
// the compress.* counters belong to CABLE's own link ends.
func (m *EngineMeter) measure(data []byte, owner int) {
	enc := m.engine.CompressScratch(&m.scr, data, nil)
	m.account(owner, len(data)*8, enc.NBits, enc)
}

// OnFill implements Meter.
func (m *EngineMeter) OnFill(data []byte, owner int) { m.measure(data, owner) }

// OnWriteback implements Meter.
func (m *EngineMeter) OnWriteback(data []byte, owner int) { m.measure(data, owner) }

// StreamMeter measures the gzip-class streaming compressor: one
// persistent dictionary per link direction, shared by every program on
// the link — which is exactly how it suffers dictionary pollution in
// the destructive multiprogram study (§VI-C).
type StreamMeter struct {
	meterBase
	down *compress.LZSS // home→remote (fills)
	up   *compress.LZSS // remote→home (write-backs)
}

// NewStreamMeterIn builds a gzip meter with the given window (32 KB in
// the paper — gzip's maximum).
func NewStreamMeterIn(name string, window int, cfg link.Config, reg *obs.Registry) *StreamMeter {
	return &StreamMeter{
		meterBase: newMeterBaseIn(name, cfg, reg),
		down:      compress.NewLZSS(name, window),
		up:        compress.NewLZSS(name, window),
	}
}

// OnFill implements Meter.
func (m *StreamMeter) OnFill(data []byte, owner int) {
	enc := m.down.CompressScratch(&m.scr, data)
	m.account(owner, len(data)*8, enc.NBits, enc)
}

// OnWriteback implements Meter.
func (m *StreamMeter) OnWriteback(data []byte, owner int) {
	enc := m.up.CompressScratch(&m.scr, data)
	m.account(owner, len(data)*8, enc.NBits, enc)
}

// Release implements Meter: both windows go back to the LZSS pool.
func (m *StreamMeter) Release() {
	if m.down == nil {
		return
	}
	m.down.Release()
	m.up.Release()
	m.down, m.up = nil, nil
}

// releaseMeters releases every meter of ms.
func releaseMeters(ms []Meter) {
	for _, m := range ms {
		m.Release()
	}
}

// DefaultMetersIn builds the paper's comparison set (Fig 12): BDI, CPACK,
// CPACK128, LBE256 and gzip with a 32 KB window.
func DefaultMetersIn(cfg link.Config, reg *obs.Registry) []Meter {
	return []Meter{
		NewRawMeterIn(cfg, reg),
		NewEngineMeterIn(compress.NewBDI(), cfg, reg),
		NewEngineMeterIn(compress.NewCPack("cpack", 64), cfg, reg),
		NewEngineMeterIn(compress.NewCPack("cpack128", 128), cfg, reg),
		NewEngineMeterIn(compress.NewLBE("lbe256", 256), cfg, reg),
		NewStreamMeterIn("gzip", 32<<10, cfg, reg),
	}
}
