package codec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/core"
)

// Encoder compresses a byte stream through a CABLE link into the
// chunked wire format. It is an io.Writer with explicit Flush/Close;
// one Encoder serves one stream at a time, and Reset re-arms it for the
// next stream without rebuilding its dictionary or tables — Encoders
// are sync.Pool-friendly.
//
// The hot path rides the batched EncodeFills API: Write accumulates
// lines until a full batch is ready (or consumes full batches straight
// from the caller's buffer, copy-free), encodes the batch in one call
// with every payload image appended to the frame's one bit stream, and
// seals the frame with the stream's running CRC. Once the buffers have
// grown a stream allocates its header and nothing else.
type Encoder struct {
	w   io.Writer
	opt Options

	dict *cache.Cache
	he   *core.HomeEnd

	sets, ways       uint64
	lineSize         int
	batchBytes       int
	idxBits, wayBits int

	seq        uint64 // lines committed to the dictionary
	buf        []byte // pending input (partial batch + partial line)
	reqs       []core.BatchFill
	frame      []byte      // the frame being shipped
	mw         bits.Writer // a CABLE frame's body: its payload images back to back
	crc        uint32      // running CRC-32 of the stream so far
	headerDone bool
	closed     bool
	err        error

	// emitFn is the EncodeFills callback, built once so the per-batch
	// call does not allocate a closure; it reads the cur* fields.
	emitFn   func(i int, p core.Payload, lat core.FillLatency)
	curBlock []byte
	curBase  uint64
	curN     int

	// Stats accumulates this stream's traffic; Reset zeroes it.
	Stats StreamStats
}

// NewEncoder builds an encoder writing the encoded stream to w.
func NewEncoder(w io.Writer, o Options) (*Encoder, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	dict := cache.New(dictConfig(o.DictBytes, o.DictWays, o.LineSize))
	he, err := core.NewHomeEnd(codecConfig(o.Engine), dict, dict)
	if err != nil {
		return nil, err
	}
	e := &Encoder{
		w:          w,
		opt:        o,
		dict:       dict,
		he:         he,
		sets:       uint64(dict.NumSets()),
		ways:       uint64(o.DictWays),
		lineSize:   o.LineSize,
		batchBytes: o.Batch * o.LineSize,
		idxBits:    dict.IndexBits(),
		wayBits:    dict.WayBits(),
	}
	e.emitFn = e.emitPayload
	return e, nil
}

// errClosed reports writes after Close.
var errClosed = errors.New("codec: encoder is closed")

// Write implements io.Writer: it buffers p into lines and encodes every
// full batch. Write never fails on content — only on underlying writer
// errors (which are sticky).
func (e *Encoder) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	if e.closed {
		return 0, errClosed
	}
	n := len(p)
	e.Stats.InBytes += uint64(n)
	// Copy-free fast path: with nothing pending, full batches encode
	// straight out of the caller's buffer.
	for len(e.buf) == 0 && len(p) >= e.batchBytes {
		if err := e.encodeLines(p[:e.batchBytes]); err != nil {
			return n - len(p), err
		}
		p = p[e.batchBytes:]
	}
	for len(p) > 0 {
		take := e.batchBytes - len(e.buf)
		if take > len(p) {
			take = len(p)
		}
		e.buf = append(e.buf, p[:take]...)
		p = p[take:]
		if len(e.buf) == e.batchBytes {
			if err := e.encodeLines(e.buf); err != nil {
				return n - len(p), err
			}
			e.buf = e.buf[:0]
		}
	}
	return n, nil
}

// Flush encodes every buffered complete line as a (possibly short)
// frame; every frame has been handed to the underlying writer when it
// returns. Bytes short of a line stay buffered: only Close can emit
// them (as the tail frame).
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	full := len(e.buf) / e.lineSize * e.lineSize
	if full > 0 {
		if err := e.encodeLines(e.buf[:full]); err != nil {
			return err
		}
		rem := copy(e.buf, e.buf[full:])
		e.buf = e.buf[:rem]
	}
	return nil
}

// Close flushes buffered lines, emits the tail frame for any sub-line
// remainder and then the end frame that every stream closes with. It
// does not close the underlying writer. Close is idempotent.
func (e *Encoder) Close() error {
	if e.closed {
		return e.err
	}
	e.closed = true
	if err := e.Flush(); err != nil {
		return err
	}
	if err := e.ensureHeader(); err != nil {
		return err
	}
	if len(e.buf) > 0 {
		e.Stats.TailBytes += uint64(len(e.buf))
		if err := e.emitFrame(kindTail, len(e.buf), e.buf); err != nil {
			return err
		}
	}
	// The input buffer has nothing left to hold, so the end frame's body
	// is built in it: a local array would escape through the sink.
	e.buf = binary.LittleEndian.AppendUint64(e.buf[:0], e.Stats.InBytes)
	err := e.emitFrame(kindEnd, 0, e.buf)
	e.buf = e.buf[:0]
	return err
}

// Reset discards all stream state — buffered bytes, the dictionary,
// the link tables, stats, any error — and re-arms the encoder on w. A
// Reset encoder emits byte-identical output to a newly built one with
// the same Options, which is what makes pooling instances safe.
func (e *Encoder) Reset(w io.Writer) {
	e.w = w
	e.dict.Reset()
	e.he.Reset()
	e.seq = 0
	e.buf = e.buf[:0]
	e.headerDone = false
	e.closed = false
	e.err = nil
	e.Stats = StreamStats{}
}

// ensureHeader writes the stream header before the first frame and
// starts the running CRC from it.
func (e *Encoder) ensureHeader() error {
	if e.headerDone {
		return nil
	}
	e.headerDone = true
	hdr := make([]byte, 0, headerFixed+len(e.opt.Engine))
	hdr = append(hdr, magic[:]...)
	hdr = append(hdr, version, byte(e.lineSize), byte(e.lineSize>>8))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(e.sets))
	hdr = append(hdr, byte(e.ways), byte(len(e.opt.Engine)))
	hdr = append(hdr, e.opt.Engine...)
	e.crc = crc32.ChecksumIEEE(hdr)
	return e.writeOut(hdr)
}

// installLine commits line s to the dictionary: scrub the displaced
// occupant from the link tables (the home-side half of the §III-F
// synchronization), then overwrite the slot in place. The decoder
// performs the same install — minus the table scrub, which only the
// compressing side needs — from the decoded bytes.
func (e *Encoder) installLine(s uint64, data []byte) {
	slot := slotOf(s, e.sets, e.ways)
	if victim, ok := e.dict.LineAddrOf(slot); ok {
		e.he.OnHomeEviction(victim)
	}
	e.dict.InsertAt(s, data, cache.Shared, slot.Way)
}

// emitPayload is the EncodeFills callback: append payload i's image to
// the frame's bit stream, then install line i+1 — the exact point
// between line i's structural mutations and line i+1's probe where the
// batch path guarantees sequential equivalence.
func (e *Encoder) emitPayload(i int, p core.Payload, _ core.FillLatency) {
	p.AppendTo(&e.mw, e.idxBits, e.wayBits)
	if i+1 < e.curN {
		off := (i + 1) * e.lineSize
		e.installLine(e.curBase+uint64(i+1), e.curBlock[off:off+e.lineSize])
	}
}

// encodeLines encodes a block of 1..Batch complete lines as one frame.
func (e *Encoder) encodeLines(block []byte) error {
	if err := e.ensureHeader(); err != nil {
		return err
	}
	n := len(block) / e.lineSize
	e.curBlock, e.curBase, e.curN = block, e.seq, n
	e.reqs = e.reqs[:0]
	for i := 0; i < n; i++ {
		s := e.seq + uint64(i)
		e.reqs = append(e.reqs, core.BatchFill{
			LineAddr: s,
			State:    cache.Shared,
			ReplWay:  slotOf(s, e.sets, e.ways).Way,
		})
	}
	e.mw.Reset()
	e.installLine(e.seq, block[:e.lineSize])
	if err := e.he.EncodeFills(e.reqs, e.emitFn); err != nil {
		e.err = err
		return err
	}
	e.seq += uint64(n)
	e.Stats.Lines += uint64(n)
	if body := e.mw.Bytes(); len(body) < len(block) {
		e.Stats.CableFrames++
		return e.emitFrame(kindCable, n, body)
	}
	// Incompressible span: the payload images cost at least as much as
	// the lines themselves, so pass them through raw. The link tables
	// already absorbed the batch identically, and the decoder installs
	// raw lines at the same slots, so dictionary sync holds either way.
	e.Stats.RawFrames++
	return e.emitFrame(kindRaw, n, block)
}

// emitFrame ships one frame: its header, the running CRC extended over
// kind | count | bodyLen | body, and the body.
func (e *Encoder) emitFrame(kind byte, count int, body []byte) error {
	e.frame = append(e.frame[:0], kind, byte(count), byte(count>>8))
	e.frame = binary.LittleEndian.AppendUint32(e.frame, uint32(len(body)))
	e.crc = crc32.Update(crc32.Update(e.crc, crc32.IEEETable, e.frame), crc32.IEEETable, body)
	e.frame = binary.LittleEndian.AppendUint32(e.frame, e.crc)
	e.frame = append(e.frame, body...)
	return e.writeOut(e.frame)
}

// writeOut ships one buffer; a write error is sticky.
func (e *Encoder) writeOut(buf []byte) error {
	e.Stats.OutBytes += uint64(len(buf))
	if _, err := e.w.Write(buf); err != nil {
		e.err = err
		return err
	}
	return nil
}
