package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"cable/internal/bits"
	"cable/internal/cache"
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

	sets, ways uint64
	lineSize   int

	seq        uint64
	headerDone bool
	crc        uint32 // running CRC-32 of the stream so far
	head       [frameHdrLen]byte
	body       []byte
	br         bits.Reader // over a verified CABLE frame body
	out        []byte
	outPos     int
	err        error

	// Stats accumulates this stream's traffic; Reset zeroes it.
	Stats StreamStats
}

// NewDecoder builds a decoder reading the encoded stream from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

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

// Read implements io.Reader. After the end frame it returns io.EOF and
// reads nothing further; any corruption — the input ending anywhere
// else included — surfaces as a typed error (ErrBadFrame or the core
// payload error taxonomy) and any other error of the underlying reader
// wrapped as it came, all sticky across calls.
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

// installLine mirrors the encoder's dictionary install. The decoder
// never touches the link tables: only the compressing side needs them.
func (d *Decoder) installLine(s uint64, data []byte) {
	slot := slotOf(s, d.sets, d.ways)
	d.dict.InsertAt(s, data, cache.Shared, slot.Way)
}

// readFull fills buf. The input ending — anywhere: only the end frame
// ends a stream — is truncation.
func (d *Decoder) readFull(buf []byte, what string) error {
	_, err := io.ReadFull(d.r, buf)
	switch err {
	case nil:
		return nil
	case io.EOF, io.ErrUnexpectedEOF:
		return fmt.Errorf("codec: %s at line %d: %w: %w", what, d.seq, core.ErrTruncatedPayload, io.ErrUnexpectedEOF)
	}
	return d.transportErr(what, err)
}

// transportErr wraps a reader error that is not an end of stream — a
// timeout, a reset — with its position. It is the transport's failure,
// so it is not reclassified as payload damage.
func (d *Decoder) transportErr(what string, err error) error {
	return fmt.Errorf("codec: reading %s at line %d: %w", what, d.seq, err)
}

// readHeader parses and validates the stream header, (re)building the
// dictionary and remote end unless the previous stream's survive the
// geometry check, and starts the running CRC from it.
func (d *Decoder) readHeader() error {
	var fixed [headerFixed]byte
	if err := d.readFull(fixed[:], "stream header"); err != nil {
		return err
	}
	if [4]byte(fixed[:4]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFrame, fixed[:4])
	}
	if fixed[4] != version {
		return fmt.Errorf("%w: version %d, want %d", ErrBadFrame, fixed[4], version)
	}
	lineSize := int(binary.LittleEndian.Uint16(fixed[5:7]))
	sets := int(binary.LittleEndian.Uint32(fixed[7:11]))
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
	d.crc = crc32.Update(crc32.ChecksumIEEE(fixed[:]), crc32.IEEETable, name)
	d.headerDone = true
	d.Stats.OutBytes += uint64(headerFixed + nameLen)
	return nil
}

// nextFrame reads one frame, verifies it and decodes it into d.out; the
// end frame returns io.EOF.
func (d *Decoder) nextFrame() error {
	if !d.headerDone {
		if err := d.readHeader(); err != nil {
			return err
		}
	}
	if err := d.readFull(d.head[:], "frame header"); err != nil {
		return err
	}
	kind := d.head[0]
	count := int(binary.LittleEndian.Uint16(d.head[1:3]))
	bodyLen := int(binary.LittleEndian.Uint32(d.head[3:7]))

	// Sanity-check the header before allocating or reading the body, so
	// a corrupted length cannot provoke a huge allocation.
	ok := false
	switch kind {
	case kindCable: // a body as long as its lines would have gone raw
		ok = count >= 1 && count <= MaxBatch && bodyLen >= 1 && bodyLen < count*d.lineSize
	case kindRaw:
		ok = count >= 1 && count <= MaxBatch && bodyLen == count*d.lineSize
	case kindTail:
		ok = count == bodyLen && count >= 1 && count < d.lineSize
	case kindEnd:
		ok = count == 0 && bodyLen == endBody
	}
	if !ok {
		return fmt.Errorf("%w: kind %d, count %d, body %dB at line %d", ErrBadFrame, kind, count, bodyLen, d.seq)
	}
	if cap(d.body) < bodyLen {
		d.body = make([]byte, bodyLen)
	}
	d.body = d.body[:bodyLen]
	if err := d.readFull(d.body, "frame body"); err != nil {
		return err
	}
	d.Stats.OutBytes += uint64(frameHdrLen + bodyLen)

	// The check comes before anything of the frame is parsed or
	// installed: a frame that fails it never reaches the dictionary.
	d.crc = crc32.Update(crc32.Update(d.crc, crc32.IEEETable, d.head[:crcOff]), crc32.IEEETable, d.body)
	if got := binary.LittleEndian.Uint32(d.head[crcOff:]); got != d.crc {
		return fmt.Errorf("codec: frame at line %d carries CRC %#08x, stream CRC %#08x: %w", d.seq, got, d.crc, core.ErrCRCMismatch)
	}

	switch kind {
	case kindCable:
		return d.decodeCableFrame(count)
	case kindRaw:
		for i := 0; i < count; i++ {
			d.installLine(d.seq+uint64(i), d.body[i*d.lineSize:(i+1)*d.lineSize])
		}
		d.seq += uint64(count)
		d.Stats.Lines += uint64(count)
		d.Stats.RawFrames++
	case kindTail:
		d.Stats.TailBytes += uint64(count)
	case kindEnd:
		if total := binary.LittleEndian.Uint64(d.body); total != d.Stats.InBytes {
			return fmt.Errorf("%w: end frame declares %d plaintext bytes, stream held %d", ErrBadFrame, total, d.Stats.InBytes)
		}
		return io.EOF
	}
	d.out = append(d.out, d.body...)
	d.Stats.InBytes += uint64(bodyLen)
	return nil
}

// decodeCableFrame decodes the count payload images of d.body off one
// bit reader, a line at a time: image i+1's references may name the
// slot line i has just been installed in.
func (d *Decoder) decodeCableFrame(count int) error {
	d.br.Reset(d.body, 8*len(d.body))
	for i := 0; i < count; i++ {
		line, err := d.re.DecodeFillFrom(&d.br, 0)
		if err != nil {
			return fmt.Errorf("codec: payload %d of the frame at line %d: %w", i, d.seq, err)
		}
		d.installLine(d.seq+uint64(i), line)
		d.out = append(d.out, line...)
		d.Stats.InBytes += uint64(len(line))
	}
	// The body ends with the last image, zero-padded to a byte.
	pad := d.br.Remaining()
	if pad >= 8 {
		return fmt.Errorf("%w: %d bits after the %d payloads of the frame at line %d", ErrBadFrame, pad, count, d.seq)
	}
	if v, _ := d.br.ReadBits(pad); v != 0 {
		return fmt.Errorf("%w: non-zero padding %#x in the frame at line %d", ErrBadFrame, v, d.seq)
	}
	d.seq += uint64(count)
	d.Stats.Lines += uint64(count)
	d.Stats.CableFrames++
	return nil
}
