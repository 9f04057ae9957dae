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

// Marshal serializes the payload to the wire. idxBits and wayBits
// describe the remote cache geometry (RemoteLID = index + way).
func (p Payload) Marshal(idxBits, wayBits int) compress.Encoded {
	var w bits.Writer
	return p.MarshalInto(&w, idxBits, wayBits)
}

// MarshalInto is the scratch form of Marshal: it resets w and writes
// the wire image into it, so a caller-owned Writer amortizes the
// buffer across payloads. The result aliases w and is valid until the
// Writer's next use.
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

// MarshalGuarded is Marshal plus an appended CRC-8 guard over the
// payload image; UnmarshalPayloadGuarded verifies and strips it. The
// guard costs crcBits on the wire, so it is an option the fault-aware
// drivers enable rather than part of the baseline format (whose bit
// accounting matches the paper).
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

// UnmarshalPayload parses a wire payload into buffers it allocates; the
// result owns them. See UnmarshalPayloadScratch for the parser.
func UnmarshalPayload(enc compress.Encoded, idxBits, wayBits, lineSize int) (Payload, error) {
	var p Payload
	if err := UnmarshalPayloadScratch(&p, new(PayloadScratch), enc, idxBits, wayBits, lineSize); err != nil {
		return Payload{}, err
	}
	return p, nil
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

// UnmarshalPayloadScratch is the payload parser: the parsed payload is
// written through p and aliases s, so steady-state decodes allocate
// nothing once the scratch has grown to payload size. lineSize bounds
// the raw form. Anomalies surface as wrapped ErrTruncatedPayload, never a
// panic: the bit reader bounds every access to the physical buffer even
// when enc.NBits overstates it.
func UnmarshalPayloadScratch(p *Payload, s *PayloadScratch, enc compress.Encoded, idxBits, wayBits, lineSize int) error {
	*p = Payload{}
	r := enc.Reader()
	flag, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("core: empty payload: %w: %w", ErrTruncatedPayload, err)
	}
	if flag == 0 {
		s.raw, err = r.AppendBytes(s.raw[:0], lineSize)
		if err != nil {
			return fmt.Errorf("core: raw payload: %w: %w", ErrTruncatedPayload, err)
		}
		p.Raw = s.raw
		return nil
	}
	p.Compressed = true
	if s.refs, err = readRefs(r, s.refs[:0], idxBits, wayBits); err != nil {
		return err
	}
	if len(s.refs) > 0 {
		p.Refs = s.refs
	}
	nbits := r.Remaining()
	s.diff.Reset()
	s.diff.CopyRemaining(r)
	p.Diff = compress.Encoded{Data: s.diff.Bytes(), NBits: nbits}
	return nil
}

// readRefs parses what follows a compressed image's flag bit — the
// reference count and that many RemoteLIDs — appending them to refs. It
// is the one parser of that field, for the materializing unmarshal
// above and for RemoteEnd.DecodeFillFrom.
func readRefs(r *bits.Reader, refs []cache.LineID, idxBits, wayBits int) ([]cache.LineID, error) {
	n, err := r.ReadBits(refCountBits)
	if err != nil {
		return refs, fmt.Errorf("core: refcount: %w: %w", ErrTruncatedPayload, err)
	}
	for i := 0; i < int(n); i++ {
		idx, err := r.ReadBits(idxBits)
		if err != nil {
			return refs, fmt.Errorf("core: ref %d index: %w: %w", i, ErrTruncatedPayload, err)
		}
		way, err := r.ReadBits(wayBits)
		if err != nil {
			return refs, fmt.Errorf("core: ref %d way: %w: %w", i, ErrTruncatedPayload, err)
		}
		refs = append(refs, cache.LineID{Index: int(idx), Way: int(way)})
	}
	return refs, nil
}

// UnmarshalPayloadGuardedScratch verifies and strips the CRC-8 guard
// appended by MarshalGuarded, then parses the remaining image into
// caller scratch (see UnmarshalPayloadScratch). A failed check returns
// the bare ErrCRCMismatch sentinel, so a condemned frame allocates
// nothing; an image too short to carry the guard returns a wrapped
// ErrTruncatedPayload.
func UnmarshalPayloadGuardedScratch(p *Payload, s *PayloadScratch, enc compress.Encoded, idxBits, wayBits, lineSize int) error {
	if enc.NBits < crcBits+flagBits {
		return fmt.Errorf("core: %d-bit image below guard size: %w", enc.NBits, ErrTruncatedPayload)
	}
	if enc.NBits > 8*len(enc.Data) {
		return fmt.Errorf("core: %d-bit image in %d-byte buffer: %w", enc.NBits, len(enc.Data), ErrTruncatedPayload)
	}
	bodyBits := enc.NBits - crcBits
	var got byte
	for i := 0; i < crcBits; i++ {
		pos := bodyBits + i
		got = got<<1 | enc.Data[pos/8]>>(7-uint(pos%8))&1
	}
	if want := crc8Image(enc.Data, bodyBits); got != want {
		return ErrCRCMismatch
	}
	return UnmarshalPayloadScratch(p, s, compress.Encoded{Data: enc.Data, NBits: bodyBits}, idxBits, wayBits, lineSize)
}

// UnmarshalPayloadGuarded is UnmarshalPayloadGuardedScratch into buffers
// it allocates; the result owns them.
func UnmarshalPayloadGuarded(enc compress.Encoded, idxBits, wayBits, lineSize int) (Payload, error) {
	var p Payload
	if err := UnmarshalPayloadGuardedScratch(&p, new(PayloadScratch), enc, idxBits, wayBits, lineSize); err != nil {
		return Payload{}, err
	}
	return p, nil
}
