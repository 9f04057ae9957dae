package codec

import (
	"fmt"
	"io"

	"cable/internal/cache"
	"cable/internal/compress"
	"cable/internal/core"
)

// Decoder reconstructs the plaintext stream from the wire format. It is
// an io.Reader; geometry and engine come from the stream header, so a
// Decoder needs no configuration. Reset re-arms it for the next stream,
// reusing the dictionary when the new header matches the old geometry.
type Decoder struct {
	r io.Reader

	dict   *cache.Cache
	re     *core.RemoteEnd
	geom   cache.Config
	engine string

	sets, ways       uint64
	lineSize         int
	idxBits, wayBits int

	seq        uint64
	headerDone bool
	head       [frameHdrLen]byte
	body       []byte
	ps         []core.Payload
	scrs       []core.PayloadScratch
	out        []byte
	outPos     int
	err        error

	// emitFn is the DecodeFills callback, built once; it reads curBase.
	emitFn  func(i int, data []byte)
	curBase uint64

	// Stats accumulates this stream's traffic; Reset zeroes it.
	Stats StreamStats
}

// NewDecoder builds a decoder reading the encoded stream from r.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{r: r}
	d.emitFn = d.emitLine
	return d
}

// Reset discards all stream state and re-arms the decoder on r. The
// dictionary survives if the next stream's header declares the same
// geometry and engine — the common case when pooling connections with
// one codec configuration.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.seq = 0
	d.headerDone = false
	d.out = d.out[:0]
	d.outPos = 0
	d.err = nil
	d.Stats = StreamStats{}
}

// Read implements io.Reader. At end of stream it returns io.EOF; any
// corruption surfaces as a typed error (ErrBadFrame or the core payload
// error taxonomy) and any other error of the underlying reader wrapped
// as it came, all sticky across calls.
func (d *Decoder) Read(p []byte) (int, error) {
	for d.outPos == len(d.out) {
		if d.err != nil {
			return 0, d.err
		}
		d.out = d.out[:0]
		d.outPos = 0
		if err := d.nextFrame(); err != nil {
			d.err = err
			if len(d.out) > 0 {
				break // deliver what the frame produced before failing
			}
			return 0, err
		}
	}
	n := copy(p, d.out[d.outPos:])
	d.outPos += n
	return n, nil
}

// emitLine is the DecodeFills callback: install decoded line i at its
// slot before payload i+1 decodes, keeping the dictionary synchronized
// for payload i+1's references.
func (d *Decoder) emitLine(i int, data []byte) {
	d.installLine(d.curBase+uint64(i), data)
	d.out = append(d.out, data...)
	d.Stats.InBytes += uint64(len(data))
}

// installLine mirrors the encoder's dictionary install. The decoder
// never touches the link tables: only the compressing side needs them.
func (d *Decoder) installLine(s uint64, data []byte) {
	slot := slotOf(s, d.sets, d.ways)
	d.dict.OverwriteAt(s, data, cache.Shared, slot.Way)
}

// readFull fills buf from the middle of an object, where the stream
// ending is truncation.
func (d *Decoder) readFull(buf []byte, what string) error {
	_, err := io.ReadFull(d.r, buf)
	switch err {
	case nil:
		return nil
	case io.EOF, io.ErrUnexpectedEOF:
		return fmt.Errorf("codec: %s: %w: %w", what, core.ErrTruncatedPayload, io.ErrUnexpectedEOF)
	}
	return d.transportErr(what, err)
}

// readStart fills buf with the start of a stream header or frame. Only
// before its first byte is io.EOF a clean end of stream; one byte in,
// the stream ending is truncation like anywhere else.
func (d *Decoder) readStart(buf []byte, what string) error {
	if _, err := io.ReadFull(d.r, buf[:1]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return d.transportErr(what, err)
	}
	return d.readFull(buf[1:], what)
}

// transportErr wraps a reader error that is not an end of stream — a
// timeout, a reset — with its position. It is the transport's failure,
// so it is not reclassified as payload damage.
func (d *Decoder) transportErr(what string, err error) error {
	return fmt.Errorf("codec: reading %s at line %d: %w", what, d.seq, err)
}

// readHeader parses and validates the stream header, (re)building the
// dictionary and remote end unless the previous stream's survive the
// geometry check.
func (d *Decoder) readHeader() error {
	var fixed [headerFixed]byte
	if err := d.readStart(fixed[:], "stream header"); err != nil {
		return err // io.EOF: an empty stream, clean before any magic byte
	}
	if [4]byte(fixed[:4]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFrame, fixed[:4])
	}
	if fixed[4] != version {
		return fmt.Errorf("%w: version %d, want %d", ErrBadFrame, fixed[4], version)
	}
	lineSize := int(rd16(fixed[5:7]))
	sets := int(rd32(fixed[7:11]))
	ways := int(fixed[11])
	nameLen := int(fixed[12])
	if lineSize < minLineSize || lineSize > maxLineSize || lineSize%4 != 0 {
		return fmt.Errorf("%w: line size %d", ErrBadFrame, lineSize)
	}
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 || sets > maxDictLines/ways {
		return fmt.Errorf("%w: geometry %d sets x %d ways", ErrBadFrame, sets, ways)
	}
	if nameLen > maxEngName {
		return fmt.Errorf("%w: %d-byte engine name", ErrBadFrame, nameLen)
	}
	name := make([]byte, nameLen)
	if err := d.readFull(name, "engine name"); err != nil {
		return err
	}
	geom := dictConfig(sets*ways*lineSize, ways, lineSize)
	if err := geom.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	if d.dict != nil && d.geom == geom && d.engine == string(name) {
		// Same shape as the previous stream: rewind in place.
		d.dict.Reset()
		d.re.Reset()
	} else {
		dict := cache.New(geom)
		re, err := core.NewRemoteEnd(codecConfig(string(name)), dict)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadFrame, err)
		}
		d.dict, d.re, d.geom, d.engine = dict, re, geom, string(name)
	}
	d.sets = uint64(sets)
	d.ways = uint64(ways)
	d.lineSize = lineSize
	d.idxBits = d.dict.IndexBits()
	d.wayBits = d.dict.WayBits()
	d.headerDone = true
	d.Stats.OutBytes += uint64(headerFixed + nameLen)
	return nil
}

// nextFrame reads and decodes one frame into d.out.
func (d *Decoder) nextFrame() error {
	if !d.headerDone {
		if err := d.readHeader(); err != nil {
			return err
		}
	}
	if err := d.readStart(d.head[:], "frame header"); err != nil {
		return err // io.EOF: clean end of stream at a frame boundary
	}
	kind := d.head[0]
	count := int(rd16(d.head[1:3]))
	bodyLen := int(rd32(d.head[3:7]))
	d.Stats.OutBytes += uint64(frameHdrLen + bodyLen)

	// Sanity-check the header before allocating or reading the body, so
	// a corrupted length cannot provoke a huge allocation and contradictory
	// fields die as ErrBadFrame rather than a misparse.
	switch kind {
	case kindCable:
		if count < 1 || count > MaxBatch {
			return fmt.Errorf("%w: cable frame of %d lines", ErrBadFrame, count)
		}
		if bodyLen < 2*count || bodyLen > count*(4*d.lineSize+16) {
			return fmt.Errorf("%w: cable frame body %dB for %d lines", ErrBadFrame, bodyLen, count)
		}
	case kindRaw:
		if count < 1 || count > MaxBatch {
			return fmt.Errorf("%w: raw frame of %d lines", ErrBadFrame, count)
		}
		if bodyLen != count*d.lineSize {
			return fmt.Errorf("%w: raw frame body %dB for %d lines", ErrBadFrame, bodyLen, count)
		}
	case kindTail:
		if count != bodyLen || count < 1 || count >= d.lineSize {
			return fmt.Errorf("%w: tail frame of %dB (body %dB)", ErrBadFrame, count, bodyLen)
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrBadFrame, kind)
	}

	if cap(d.body) < bodyLen {
		d.body = make([]byte, bodyLen)
	}
	d.body = d.body[:bodyLen]
	if err := d.readFull(d.body, "frame body"); err != nil {
		return err
	}

	switch kind {
	case kindCable:
		return d.decodeCableFrame(count)
	case kindRaw:
		for i := 0; i < count; i++ {
			d.installLine(d.seq+uint64(i), d.body[i*d.lineSize:(i+1)*d.lineSize])
		}
		d.out = append(d.out, d.body...)
		d.seq += uint64(count)
		d.Stats.Lines += uint64(count)
		d.Stats.RawFrames++
		d.Stats.InBytes += uint64(len(d.body))
		return nil
	default: // kindTail
		d.out = append(d.out, d.body...)
		d.Stats.TailBytes += uint64(count)
		d.Stats.InBytes += uint64(count)
		return nil
	}
}

// decodeCableFrame parses the count payload entries out of d.body and
// runs them through the batched decode path.
func (d *Decoder) decodeCableFrame(count int) error {
	if cap(d.ps) < count {
		d.ps = make([]core.Payload, count)
		d.scrs = make([]core.PayloadScratch, count)
	}
	d.ps = d.ps[:count]
	d.scrs = d.scrs[:count]
	off := 0
	for i := 0; i < count; i++ {
		if off+2 > len(d.body) {
			return fmt.Errorf("%w: payload %d header past frame end", ErrBadFrame, i)
		}
		nb := int(rd16(d.body[off : off+2]))
		off += 2
		nbytes := (nb + 7) / 8
		if off+nbytes > len(d.body) {
			return fmt.Errorf("codec: payload %d: %d bits past frame end: %w", i, nb, core.ErrTruncatedPayload)
		}
		enc := compress.Encoded{Data: d.body[off : off+nbytes], NBits: nb}
		off += nbytes
		if err := core.UnmarshalPayloadGuardedScratch(&d.ps[i], &d.scrs[i], enc, d.idxBits, d.wayBits, d.lineSize); err != nil {
			return fmt.Errorf("codec: payload %d: %w", i, err)
		}
	}
	if off != len(d.body) {
		return fmt.Errorf("%w: %d trailing bytes after %d payloads", ErrBadFrame, len(d.body)-off, count)
	}
	d.curBase = d.seq
	if err := d.re.DecodeFills(d.ps, d.emitFn); err != nil {
		return fmt.Errorf("codec: frame at line %d: %w", d.seq, err)
	}
	d.seq += uint64(count)
	d.Stats.Lines += uint64(count)
	d.Stats.CableFrames++
	return nil
}
