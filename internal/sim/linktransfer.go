package sim

import (
	"bytes"
	"fmt"

	"cable/internal/bits"
	"cable/internal/compress"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/obs"
)

// LinkTransfer carries CABLE payloads across one link on behalf of a
// protocol driver: marshal → meter the wire → (with an injector)
// corrupt → unmarshal → decode → verify against the driver's ground
// truth → degrade a failure to a raw resend. Every driver — Chip,
// RunMultiChip, RunNonInclusive and the topology engine — sends fills
// and write-backs through Send, so the wire format, the guard and the
// recovery rule each live here and nowhere else.
//
// The exported fields are set once by the driver that builds the
// component; a LinkTransfer serves one goroutine.
type LinkTransfer struct {
	// Link meters every image sent, resends included.
	Link *link.Link
	// Injector corrupts wire images. nil (the zero fault config) sends
	// the baseline unguarded format whose bit accounting matches the
	// paper; non-nil appends the CRC-8 guard to every image.
	Injector *fault.Injector
	// IdxBits/WayBits/LineSize are the remote-cache geometry the wire
	// format is parsed with. LIDBits is the pointer width an unguarded
	// payload is priced at — the ends' RemoteLIDBits, which differs from
	// IdxBits+WayBits only under the tag-pointer ablation.
	IdxBits, WayBits, LineSize, LIDBits int
	// Verify panics when a clean image fails to decode bit-exact.
	Verify bool
	// Recorder/Track, when non-nil, receive the fault, degradation and
	// per-transfer events.
	Recorder *obs.Recorder
	Track    *obs.Track

	// FaultsInjected counts transfers whose wire image the injector
	// altered; DecodeErrors counts transfers the receiver could not (or
	// must not) reconstruct from the received image; RawFallbacks counts
	// the uncompressed re-transfers that recovered them. With injection
	// on, the three stay equal by construction.
	FaultsInjected, DecodeErrors, RawFallbacks uint64

	// degrade mirrors the three counts into the sim.* obs counters (nil:
	// the driver publishes its own, as the topology engine does).
	degrade *degradeCounters

	// mw and ps are the marshal and unmarshal scratch: every wire image
	// is sent, corrupted and parsed before the next one is marshaled.
	mw bits.Writer
	ps core.PayloadScratch
}

// TransferResult is what one Send did.
type TransferResult struct {
	// Wire is the total wire cost in bits: the attempt plus the raw
	// resend when there was one. Toggles is the wire bit transitions of
	// the same.
	Wire    int
	Toggles uint64
	// Data is the line the receiver ends up holding: the decoded line
	// (aliasing the decoding end's scratch, valid until its next decode)
	// or, after a resend, the ground-truth slice passed in.
	Data []byte
	// Decoded reports that the received image parsed and the decoder
	// ran; Faulted that the injector altered the image; Degraded that a
	// raw resend recovered the transfer.
	Decoded, Faulted, Degraded bool
}

// Send transfers p, which the sending end just encoded from want, and
// reconstructs it with the receiving end's decode (RemoteEnd.DecodeFill
// for a fill, HomeEnd.DecodeWriteback for a write-back).
//
// Every injector-touched frame is degraded, even the ~2^-8 of multi-bit
// patterns that alias the CRC — the ground truth catches those silent
// escapes — and frames that decode bit-exact anyway (the receiver cannot
// distinguish luck from integrity), which keeps DecodeErrors ==
// FaultsInjected == RawFallbacks exact. A decode error on a clean image
// panics under Verify and degrades otherwise. The resend models the
// link-level retransmission a production link pairs with its guard: a
// fresh raw transfer, delivered clean, charged on top of the failed
// attempt.
func (x *LinkTransfer) Send(p core.Payload, decode func(core.Payload) ([]byte, error), want []byte, lineAddr uint64) TransferResult {
	togglesBefore := x.Link.Toggles
	var res TransferResult
	var derr error
	if x.Injector == nil {
		res.Data, derr = decode(p)
		res.Decoded = true
		enc := p.MarshalInto(&x.mw, x.IdxBits, x.WayBits)
		res.Wire = x.Link.SendWire(enc.Data, p.Bits(x.LIDBits))
	} else {
		enc := p.MarshalGuardedInto(&x.mw, x.IdxBits, x.WayBits)
		res.Wire = x.Link.SendWire(enc.Data, enc.NBits)
		enc.NBits, res.Faulted = x.Injector.Corrupt(enc.Data, enc.NBits)
		var q core.Payload
		derr = core.UnmarshalPayloadGuardedScratch(&q, &x.ps, enc, x.IdxBits, x.WayBits, x.LineSize)
		if derr == nil {
			// AckSeq rides the transport header, not the marshaled image.
			q.AckSeq = p.AckSeq
			res.Data, derr = decode(q)
			res.Decoded = true
		}
	}
	if res.Faulted {
		x.FaultsInjected++
		if d := x.degrade; d != nil {
			d.resolve().faultsInjected.Inc(d.shard)
		}
		if x.Recorder != nil {
			x.Recorder.Fault(x.Track)
		}
	} else if x.Verify {
		if derr != nil {
			panic(fmt.Sprintf("sim: decode of clean image for line %#x: %v", lineAddr, derr))
		}
		if !bytes.Equal(res.Data, want) {
			panic(fmt.Sprintf("sim: clean transfer corrupted for line %#x", lineAddr))
		}
	}
	if res.Faulted || derr != nil {
		res.Degraded = true
		x.DecodeErrors++
		x.RawFallbacks++
		if d := x.degrade; d != nil {
			d.resolve().decodeErrors.Inc(d.shard)
			d.rawFallbacks.Inc(d.shard)
		}
		raw := core.Payload{Raw: want}
		var enc compress.Encoded
		if x.Injector != nil {
			enc = raw.MarshalGuardedInto(&x.mw, x.IdxBits, x.WayBits)
		} else {
			enc = raw.MarshalInto(&x.mw, x.IdxBits, x.WayBits)
		}
		resend := x.Link.SendWire(enc.Data, enc.NBits)
		if x.Recorder != nil {
			x.Recorder.Degrade(x.Track, resend)
		}
		res.Wire += resend
		// The decoded buffer is whatever the failed attempt left in the
		// end's scratch; the resend delivered the ground truth.
		res.Data = want
	}
	res.Toggles = x.Link.Toggles - togglesBefore
	if x.Recorder != nil {
		x.Recorder.Transfer(x.Track, len(want)*8, res.Wire, res.Toggles)
	}
	return res
}
