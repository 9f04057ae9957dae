// Package codec turns the CABLE link encoder into a transport-agnostic
// streaming codec: an io.Writer-style Encoder and io.Reader-style
// Decoder whose shared compression dictionary is a pair of
// lock-stepped caches — the home/remote dictionary of a CABLE link —
// kept synchronized purely by the byte stream itself.
//
// # Dictionary synchronization
//
// The encoder owns one dictionary cache and drives a core.HomeEnd over
// it (the cache serves as both the "home" and the "remote" side: the
// encoder's dictionary is, by construction, an exact mirror of the
// decoder's). The byte stream is chopped into fixed-size lines; line
// number s is installed at the deterministic slot
//
//	index = s mod sets,  way = (s / sets) mod ways
//
// before it is encoded, so the CABLE pipeline can compress it as a DIFF
// against similar earlier lines still resident in the dictionary. The
// decoder replays the identical installs from the decoded lines, so
// both dictionaries hold the same bytes at the same slots at every line
// boundary — which is exactly the contract reference pointers
// (RemoteLIDs) need. Decode order is therefore the synchronization
// barrier: payload s may reference any slot as of line s-1, so lines
// must decode (and install) strictly in stream order.
//
// # Wire format (version 2)
//
//	header:  "CBLC" | ver u8 | lineSize u16 | sets u32 | ways u8 |
//	         engLen u8 | engine name
//	frame:   kind u8 | count u16 | bodyLen u32 | crc u32 | body
//
// Integers are little-endian. Frame kinds:
//
//	kindCable (1): count lines; body is count CABLE payload images
//	               (core.Payload.AppendTo: flag | refcount | RemoteLIDs |
//	               DIFF) packed back to back in one bit stream, zero-
//	               padded to a byte once. No payload carries a length:
//	               the decompressed size is fixed, so every image is
//	               self-delimiting (§III-E).
//	kindRaw   (2): count lines verbatim (count × lineSize bytes) — the
//	               raw-passthrough fallback for incompressible spans.
//	               Dictionary installs still happen, so later frames
//	               may reference these lines.
//	kindTail  (3): count (== bodyLen < lineSize) literal trailing
//	               bytes; not installed. At most one, before the end.
//	kindEnd   (4): count 0; body is the stream's plaintext length, u64.
//	               Every stream closes with one, and the decoder reads
//	               nothing after it.
//
// crc is one running IEEE CRC-32 over the stream header and then every
// frame's kind | count | bodyLen | body; each frame carries the running
// value. The decoder checks it before it parses or installs anything
// from the frame, so damage never reaches the dictionary, and a frame
// deleted, repeated, reordered or spliced in from another stream fails
// the next check with no sequence number on the wire.
//
// Three decisions, each with its reason. There is no version-1 reader:
// no v1 stream is stored anywhere, and a decoder that still took
// version 1 would let one flipped header byte switch every check above
// off. There are no dictionary-digest sync frames: with the check
// before the install, a stream that passes cannot desynchronise the
// dictionaries. And any end of input other than the end frame — a cut on
// a frame boundary, a zero-byte wire — is truncation: an Encoder that
// was Closed always wrote a header and an end frame.
//
// Corruption anywhere surfaces as a typed error — ErrBadFrame for
// structural damage, core.ErrCRCMismatch for a failed frame check,
// core.ErrTruncatedPayload (wrapping io.ErrUnexpectedEOF) for a cut, and
// core.ErrCorruptDiff / core.ErrBadReference for a payload that passed
// the check and still does not decode — never a panic.
package codec

import (
	"errors"
	"fmt"

	"cable/internal/cache"
	"cable/internal/core"
)

// ErrBadFrame marks structural damage to the stream framing: a bad
// magic or version, an unknown frame kind, frame counts/lengths that
// contradict each other, or a frame body that does not end where its
// payloads do. (A failed frame check and payload-level damage surface
// as the core error taxonomy instead.)
var ErrBadFrame = errors.New("codec: bad frame")

// Wire constants.
const (
	version     = 2
	headerFixed = 13 // magic + ver + lineSize + sets + ways + engLen
	frameHdrLen = 11 // kind + count + bodyLen + crc
	crcOff      = 7  // the frame check covers head[:crcOff] and the body

	kindCable = 1
	kindRaw   = 2
	kindTail  = 3
	kindEnd   = 4
	endBody   = 8 // the end frame's body: plaintext length, u64

	// MaxBatch bounds lines per frame; the count field could carry
	// 65535 but bounding it keeps a corrupted count from provoking a
	// large allocation before the body-length cross-check runs.
	MaxBatch = 4096

	minLineSize = 16
	maxLineSize = 4096
	maxEngName  = 32

	// maxDictLines bounds sets × ways for any stream this package will
	// produce or accept: large enough for a 16 MB dictionary of 64-byte
	// lines (500× the 32 KB window the paper models for gzip), small
	// enough that a corrupted header cannot talk the decoder into a
	// giant table allocation — the decoder builds the dictionary before
	// it has seen anything but the 13-byte header.
	maxDictLines = 1 << 18
)

var magic = [4]byte{'C', 'B', 'L', 'C'}

// Options configures an Encoder (and, implicitly, the Decoder: the
// decoder reads geometry and engine from the stream header).
type Options struct {
	// LineSize is the dictionary line size in bytes (default 64, the
	// cache-line granularity the CABLE pipeline is built for).
	LineSize int
	// DictBytes sizes the dictionary cache (default 1 MB). Bigger
	// dictionaries keep references alive longer; both sides allocate
	// this much.
	DictBytes int
	// DictWays is the dictionary associativity (default 8, at most 255:
	// the header stores it in one byte).
	DictWays int
	// Engine names the delegated per-line compression engine
	// (default "lbe").
	Engine string
	// Batch is the number of lines encoded per EncodeFills call and
	// framed together (default 32, clamped to [1, MaxBatch]).
	Batch int
	// Pipeline is accepted and ignored: the writer-goroutine emission
	// mode it selected is deleted (DESIGN "One emission path"). The
	// field stays only because the frozen benchmark/ harness sets it;
	// ROADMAP item 5's [benchmark] PR drops it together with the
	// then-redundant cablepipe.bulk_pipelined rung.
	Pipeline bool
}

// normalize fills defaults and validates.
func (o Options) normalize() (Options, error) {
	if o.LineSize == 0 {
		o.LineSize = 64
	}
	if o.DictBytes == 0 {
		o.DictBytes = 1 << 20
	}
	if o.DictWays == 0 {
		o.DictWays = 8
	}
	if o.Engine == "" {
		o.Engine = "lbe"
	}
	if o.Batch == 0 {
		o.Batch = 32
	}
	if o.Batch < 1 {
		o.Batch = 1
	}
	if o.Batch > MaxBatch {
		o.Batch = MaxBatch
	}
	if o.LineSize < minLineSize || o.LineSize > maxLineSize || o.LineSize%4 != 0 {
		return o, fmt.Errorf("codec: line size %d outside [%d, %d] or not word-aligned", o.LineSize, minLineSize, maxLineSize)
	}
	if len(o.Engine) > maxEngName {
		return o, fmt.Errorf("codec: engine name %q longer than %d bytes", o.Engine, maxEngName)
	}
	if o.DictWays > 0xFF {
		return o, fmt.Errorf("codec: %d dictionary ways do not fit the header's one-byte ways field", o.DictWays)
	}
	cfg := dictConfig(o.DictBytes, o.DictWays, o.LineSize)
	if err := cfg.Validate(); err != nil {
		return o, err
	}
	if cfg.SizeBytes/cfg.LineSize > maxDictLines {
		return o, fmt.Errorf("codec: dictionary of %d lines exceeds the wire limit of %d", cfg.SizeBytes/cfg.LineSize, maxDictLines)
	}
	return o, nil
}

func dictConfig(sizeBytes, ways, lineSize int) cache.Config {
	return cache.Config{Name: "codec-dict", SizeBytes: sizeBytes, Ways: ways, LineSize: lineSize}
}

// StreamStats counts one stream's traffic.
type StreamStats struct {
	Lines       uint64 // full lines encoded/decoded
	CableFrames uint64
	RawFrames   uint64
	TailBytes   uint64 // trailing sub-line bytes
	InBytes     uint64 // plaintext side
	OutBytes    uint64 // encoded side
}

// Ratio returns plaintext bytes per encoded byte (>1 is compression).
func (s StreamStats) Ratio() float64 {
	if s.OutBytes == 0 {
		return 1
	}
	return float64(s.InBytes) / float64(s.OutBytes)
}

// slotOf maps line number s to its dictionary slot: round-robin over
// sets, then ways — a pure function both ends compute identically.
func slotOf(s, sets, ways uint64) cache.LineID {
	return cache.LineID{Index: int(s & (sets - 1)), Way: int((s / sets) % ways)}
}

// codecConfig is the CABLE framework configuration both ends derive
// from the engine name; only EngineName and the geometry matter for
// wire compatibility.
func codecConfig(engine string) core.Config {
	cfg := core.DefaultConfig()
	cfg.EngineName = engine
	cfg.WritebackCompression = false // one-way stream: no write-backs
	return cfg
}
