// Package link models the narrow off-chip links CABLE compresses: flit
// quantization (which caps effective compression at width/8 per byte —
// 32× for the default 16-bit bus, §III-E), the packed transport of
// Fig 23, wire bit-toggle counting (§VI-D), and a busy-until channel for
// the timing simulator.
package link

import (
	"fmt"
	mathbits "math/bits"

	"cable/internal/bits"
	"cable/internal/obs"
)

// Config describes one physical link.
type Config struct {
	// WidthBits is the physical width; Table IV uses 16 bits.
	WidthBits int
	// FreqHz is the transfer rate; Table IV uses 9.6 GHz (19.2 GB/s
	// at 16 bits).
	FreqHz float64
	// Packed enables the Fig 23 "Packed" transport: transactions are
	// packed back-to-back with a 6-bit length prefix instead of being
	// padded to flit boundaries.
	Packed bool
}

// DefaultConfig is the paper's off-chip link (Table IV).
func DefaultConfig() Config {
	return Config{WidthBits: 16, FreqHz: 9.6e9}
}

// BytesPerSec is the raw link bandwidth.
func (c Config) BytesPerSec() float64 { return c.FreqHz * float64(c.WidthBits) / 8 }

// packedLenBits is the per-transaction length prefix of the packed
// transport (§VI-E: "a 6-bit value specifying the length in bytes").
const packedLenBits = 6

// packedLenEscape is the continuation marker of the length prefix: a
// 6-bit chunk can only represent 0–63 bytes, but a raw 64 B line plus
// header already exceeds that, so the value 63 means "63 bytes plus the
// next chunk" and chunks chain until a terminal value < 63 (the escape
// the original 6-bit field lacked — without it, large transactions were
// silently under-modeled on the wire).
const packedLenEscape = 1<<packedLenBits - 1

// packedPrefixBits returns the wire cost of the length prefix for a
// transaction of nbytes payload bytes under the escape/continuation
// encoding.
func packedPrefixBits(nbytes int) int {
	bits := packedLenBits
	for nbytes >= packedLenEscape {
		nbytes -= packedLenEscape
		bits += packedLenBits
	}
	return bits
}

// Link accumulates traffic statistics for one direction of a channel.
type Link struct {
	cfg Config

	// Payloads is the number of transactions sent.
	Payloads uint64
	// PayloadBits is the pre-quantization compressed size.
	PayloadBits uint64
	// WireBits is the post-quantization on-wire size (flits × width,
	// or exact bits + length prefixes when packed).
	WireBits uint64
	// Toggles counts wire bit transitions (§VI-D).
	Toggles uint64

	residualBits int    // unused bits in the current packed flit
	prevWord     uint64 // last transmitted width-wide word, for toggles

	mx    linkCounters
	shard uint32
}

// New builds a link. Width must be in (0, 64] to fit toggle words.
func New(cfg Config) *Link { return NewIn(cfg, nil) }

// NewIn is New with an explicit metrics registry (nil means the
// process-default registry). Memoized experiment cells run their links
// against private registries.
func NewIn(cfg Config, reg *obs.Registry) *Link {
	if cfg.WidthBits <= 0 || cfg.WidthBits > 64 {
		panic(fmt.Sprintf("link: width %d out of range", cfg.WidthBits))
	}
	l := &Link{cfg: cfg}
	l.mx, l.shard = linkMetricsIn(reg)
	return l
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// Flits returns how many width-wide transfers a payload of n bits
// occupies on an unpacked link.
func (l *Link) Flits(nbits int) int {
	return (nbits + l.cfg.WidthBits - 1) / l.cfg.WidthBits
}

// Send accounts one payload of nbits and returns its on-wire size in
// bits after quantization/packing.
func (l *Link) Send(nbits int) int {
	l.Payloads++
	l.PayloadBits += uint64(nbits)
	var wire int
	if l.cfg.Packed {
		total := nbits + packedPrefixBits((nbits+7)/8)
		// Consume the residual of the current flit first.
		if l.residualBits >= total {
			l.residualBits -= total
			wire = total
		} else {
			rem := total - l.residualBits
			flits := (rem + l.cfg.WidthBits - 1) / l.cfg.WidthBits
			l.residualBits = flits*l.cfg.WidthBits - rem
			wire = total
		}
	} else {
		wire = l.Flits(nbits) * l.cfg.WidthBits
	}
	l.WireBits += uint64(wire)
	l.mx.payloads.Inc(l.shard)
	l.mx.payloadBits.Add(l.shard, uint64(nbits))
	l.mx.wireBits.Add(l.shard, uint64(wire))
	return wire
}

// SendWire accounts a payload with its wire image for toggle counting:
// the bit stream is split into width-wide words and transitions between
// consecutive words (including across payloads) are counted, modeling
// an unscrambled DDR-style bus. nbits sizes the transfer; if the image
// is shorter than nbits (small framing bits not materialized), toggles
// are counted over the available image only.
func (l *Link) SendWire(data []byte, nbits int) int {
	wire := l.Send(nbits)
	w := l.cfg.WidthBits
	var r bits.Reader
	r.Reset(data, nbits) // clamps to the image
	// Bit i of a word (from its MSB at position w-1) is wire lane i.
	// Full words are read as many at a time as fit 64 bits, first-sent
	// on top. Shifted down one word, with the previous word put above
	// it, the batch lines every word up with its predecessor, so one
	// XOR counts the toggles of them all.
	prev, toggles := l.prevWord, 0
	for full, batch := r.Remaining()/w, 64/w; full > 0; {
		m := min(batch, full)
		full -= m
		x, _ := r.ReadBits(m * w)
		toggles += mathbits.OnesCount64(x ^ (x>>uint(w) | prev<<uint((m-1)*w)))
		prev = x & (^uint64(0) >> uint(64-w))
	}
	if n := r.Remaining(); n > 0 {
		// A partial final word drives only the first n lanes:
		// left-align it and mask the comparison to the driven lanes, so
		// undriven wires contribute no toggles and keep their state.
		word, _ := r.ReadBits(n)
		word <<= uint(w - n)
		mask := (^uint64(0) >> uint(64-n)) << uint(w-n)
		toggles += mathbits.OnesCount64((word ^ prev) & mask)
		prev = prev&^mask | word
	}
	l.prevWord = prev
	l.Toggles += uint64(toggles)
	l.mx.toggles.Add(l.shard, uint64(toggles))
	return wire
}

// Channel is the busy-until timing model for one link direction: FCFS
// occupancy, no preemption — exactly the first-order serialization
// bottleneck the throughput study measures.
type Channel struct {
	cfg       Config
	busyUntil float64 // seconds
	Busy      float64 // accumulated occupancy, for utilization metrics
}

// NewChannel builds a timing channel.
func NewChannel(cfg Config) *Channel { return &Channel{cfg: cfg} }

// Transfer schedules nbits at time now (seconds) and returns the
// completion time. Transfers serialize FCFS.
func (c *Channel) Transfer(now float64, nbits int) float64 {
	dur := float64(nbits) / (c.cfg.FreqHz * float64(c.cfg.WidthBits))
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.busyUntil = start + dur
	c.Busy += dur
	return c.busyUntil
}

// Utilization returns the busy fraction over elapsed seconds.
func (c *Channel) Utilization(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := c.Busy / elapsed
	if u > 1 {
		u = 1
	}
	return u
}

// ResetWindow clears the occupancy accumulator (used by the §VI-D
// on/off control scheme, which samples utilization every millisecond).
func (c *Channel) ResetWindow() { c.Busy = 0 }
