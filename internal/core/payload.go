package core

import (
	"fmt"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
)

// Payload is the unit CABLE transmits over the link (§III-E). Overheads
// are minimal: a 1-bit compressed flag, and for compressed payloads a
// 2-bit reference count followed by the RemoteLIDs and the
// variable-length DIFF. The DIFF length is implicit because the
// decompressed size is fixed (one cache line).
type Payload struct {
	Compressed bool
	Refs       []cache.LineID // RemoteLIDs, at most MaxRefs
	Diff       compress.Encoded
	Raw        []byte // uncompressed fallback, when !Compressed

	// AckSeq echoes the highest remote EvictSeq the home end had
	// processed when it produced this payload (§IV-A). It rides in
	// header fields the transport already carries, so it does not
	// count toward Bits.
	AckSeq uint64
}

// Clone returns a deep copy that owns its buffers. The payloads
// produced by EncodeFill/EncodeWriteback alias their end's reusable
// scratch and are valid only until that end's next encode; callers
// that retain a payload across encodes must Clone it first.
func (p Payload) Clone() Payload {
	q := p
	if p.Refs != nil {
		q.Refs = append([]cache.LineID(nil), p.Refs...)
	}
	if p.Diff.Data != nil {
		q.Diff.Data = append([]byte(nil), p.Diff.Data...)
	}
	if p.Raw != nil {
		q.Raw = append([]byte(nil), p.Raw...)
	}
	return q
}

// payload header widths.
const (
	flagBits     = 1
	refCountBits = 2
)

// Bits returns the exact transmitted size in bits given the RemoteLID
// width of the link.
func (p Payload) Bits(remoteLIDBits int) int {
	if !p.Compressed {
		return flagBits + len(p.Raw)*8
	}
	return flagBits + refCountBits + len(p.Refs)*remoteLIDBits + p.Diff.NBits
}

// MarshalInto serializes the payload to the wire: it resets w and
// writes the wire image into it, so a caller-owned Writer amortizes the
// buffer across payloads. idxBits and wayBits describe the remote cache
// geometry (RemoteLID = index + way). The result aliases w and is valid
// until the Writer's next use.
func (p Payload) MarshalInto(w *bits.Writer, idxBits, wayBits int) compress.Encoded {
	w.Reset()
	p.AppendTo(w, idxBits, wayBits)
	return compress.Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// AppendTo writes the wire image at w's current position, which may be
// any bit offset: the image is self-delimiting (the raw form is one
// line, the DIFF decodes to one line), so payloads appended back to
// back need no length between them — RemoteEnd.DecodeFillFrom reads
// them off one reader.
func (p Payload) AppendTo(w *bits.Writer, idxBits, wayBits int) {
	if !p.Compressed {
		w.WriteBit(0)
		w.WriteBytes(p.Raw)
		return
	}
	w.WriteBit(1)
	w.WriteBits(uint64(len(p.Refs)), refCountBits)
	for _, r := range p.Refs {
		w.WriteBits(uint64(r.Index), idxBits)
		w.WriteBits(uint64(r.Way), wayBits)
	}
	// The DIFF is the tail; its length is implied by the fixed
	// decompressed size, so no length field is sent.
	w.WriteStream(p.Diff.Data, p.Diff.NBits)
}

// MarshalGuarded is MarshalInto, into a fresh Writer, plus an appended
// CRC-8 guard over the payload image; Unguard verifies and strips it.
// The guard costs crcBits on the wire, so it is an option the
// fault-aware drivers enable rather than part of the baseline format
// (whose bit accounting matches the paper).
func (p Payload) MarshalGuarded(idxBits, wayBits int) compress.Encoded {
	var w bits.Writer
	return p.MarshalGuardedInto(&w, idxBits, wayBits)
}

// MarshalGuardedInto is the scratch form of MarshalGuarded.
func (p Payload) MarshalGuardedInto(w *bits.Writer, idxBits, wayBits int) compress.Encoded {
	enc := p.MarshalInto(w, idxBits, wayBits)
	crc := crc8Image(enc.Data, enc.NBits)
	w.WriteBits(uint64(crc), crcBits)
	return compress.Encoded{Data: w.Bytes(), NBits: w.Len()}
}

// Unguard verifies and strips the CRC-8 guard MarshalGuarded appended,
// returning the payload image it covered (aliasing enc). A failed check
// returns the bare ErrCRCMismatch sentinel, so a condemned frame
// allocates nothing; an image too short to carry the guard returns a
// wrapped ErrTruncatedPayload.
func Unguard(enc compress.Encoded) (compress.Encoded, error) {
	if enc.NBits < crcBits+flagBits {
		return compress.Encoded{}, fmt.Errorf("core: %d-bit image below guard size: %w", enc.NBits, ErrTruncatedPayload)
	}
	if enc.NBits > 8*len(enc.Data) {
		return compress.Encoded{}, fmt.Errorf("core: %d-bit image in %d-byte buffer: %w", enc.NBits, len(enc.Data), ErrTruncatedPayload)
	}
	bodyBits := enc.NBits - crcBits
	var got byte
	for i := 0; i < crcBits; i++ {
		pos := bodyBits + i
		got = got<<1 | enc.Data[pos/8]>>(7-uint(pos%8))&1
	}
	if want := crc8Image(enc.Data, bodyBits); got != want {
		return compress.Encoded{}, ErrCRCMismatch
	}
	return compress.Encoded{Data: enc.Data, NBits: bodyBits}, nil
}

// readHeader is the one parser of an image's header: the flag, then
// either the raw line, appended to raw, or the reference count and that
// many RemoteLIDs, appended to refs. It returns the grown slice of the
// image's form (raw is nil for a compressed image), leaving r on the
// DIFF's first bit. Every failure wraps ErrTruncatedPayload: that
// class, and only it, means the header did not parse.
func readHeader(r *bits.Reader, refs []cache.LineID, raw []byte, idxBits, wayBits, lineSize int) ([]cache.LineID, []byte, error) {
	flag, err := r.ReadBit()
	if err != nil {
		return nil, nil, fmt.Errorf("core: empty payload: %w: %w", ErrTruncatedPayload, err)
	}
	if flag == 0 {
		if raw, err = r.AppendBytes(raw[:0], lineSize); err != nil {
			return nil, nil, fmt.Errorf("core: raw payload: %w: %w", ErrTruncatedPayload, err)
		}
		return nil, raw, nil
	}
	n, err := r.ReadBits(refCountBits)
	for i := 0; err == nil && i < int(n); i++ {
		var id uint64
		id, err = r.ReadBits(idxBits + wayBits)
		refs = append(refs, cache.LineID{Index: int(id >> wayBits), Way: int(id & (1<<wayBits - 1))})
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: references: %w: %w", ErrTruncatedPayload, err)
	}
	return refs, nil, nil
}

// receive is the body of both ends' decoders: it parses the image at
// br — the header, then for a compressed image the DIFF, decompressed
// against the data resolve returns for each RemoteLID — leaving br
// after the image's last bit; the line aliases the scratch. spanBits is
// -1 when the header did not parse (no decode ran), else the consumed
// image priced at the link's pointer width: Payload.Bits(lidBits),
// which differs from the image's length only under the tag-pointer
// ablation.
func (s *encScratch) receive(br *bits.Reader, e compress.Engine, lineSize int, resolve func(cache.LineID) ([]byte, error)) (line []byte, spanBits int, err error) {
	start := br.Remaining()
	var ids [MaxRefsLimit]cache.LineID
	refs, raw, err := readHeader(br, ids[:0], s.decOut, s.idxBits, s.wayBits, lineSize)
	if err != nil {
		return nil, -1, err
	}
	s.decRefs = s.decRefs[:0]
	for _, rid := range refs {
		var data []byte
		if data, err = resolve(rid); err != nil {
			break
		}
		s.decRefs = append(s.decRefs, data)
	}
	switch {
	case raw != nil:
		s.decOut, line = raw, raw
	case err == nil:
		if line, err = e.DecompressFrom(&s.dec, br, s.decRefs, lineSize); err != nil {
			line, err = nil, fmt.Errorf("core: diff: %w: %w", ErrCorruptDiff, err)
		}
	}
	return line, start - br.Remaining() + len(refs)*(s.lidBits-s.idxBits-s.wayBits), err
}

// PayloadScratch holds the reusable buffers of the allocation-free
// unmarshal path. One scratch belongs to one decoded payload at a time:
// the payload written by UnmarshalPayloadScratch aliases it and is valid
// until the scratch's next use. Callers that decode batches keep one
// scratch per in-flight payload.
type PayloadScratch struct {
	refs []cache.LineID
	raw  []byte
	diff bits.Writer
}

// UnmarshalPayloadScratch materializes an image as a Payload: the
// parsed payload is written through p and aliases s, so steady-state
// unmarshals allocate nothing once the scratch has grown to payload
// size. lineSize bounds the raw form. Anomalies surface as wrapped
// ErrTruncatedPayload, never a panic: the bit reader bounds every
// access to the physical buffer even when enc.NBits overstates it.
func UnmarshalPayloadScratch(p *Payload, s *PayloadScratch, enc compress.Encoded, idxBits, wayBits, lineSize int) error {
	*p = Payload{}
	r := enc.Reader()
	refs, raw, err := readHeader(r, s.refs[:0], s.raw, idxBits, wayBits, lineSize)
	switch {
	case err != nil:
		return err
	case raw != nil:
		s.raw, p.Raw = raw, raw
		return nil
	}
	s.refs, p.Compressed = refs, true
	if len(refs) > 0 {
		p.Refs = refs
	}
	nbits := r.Remaining()
	s.diff.Reset()
	s.diff.CopyRemaining(r)
	p.Diff = compress.Encoded{Data: s.diff.Bytes(), NBits: nbits}
	return nil
}

// UnmarshalPayloadGuardedScratch is Unguard, then UnmarshalPayloadScratch
// over the image the guard covered.
func UnmarshalPayloadGuardedScratch(p *Payload, s *PayloadScratch, enc compress.Encoded, idxBits, wayBits, lineSize int) error {
	body, err := Unguard(enc)
	if err != nil {
		return err
	}
	return UnmarshalPayloadScratch(p, s, body, idxBits, wayBits, lineSize)
}
