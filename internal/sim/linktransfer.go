package sim

import (
	"bytes"
	"errors"
	"fmt"

	"cable/internal/bits"
	"cable/internal/compress"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/obs"
)

// LinkTransfer carries CABLE payloads across one link on behalf of a
// protocol driver: marshal → meter the wire → (with an injector: guard
// → corrupt → unguard) → decode from the received image → verify
// against the driver's ground truth → degrade a failure to a raw
// resend. Every driver — Chip, RunMultiChip, RunNonInclusive and the
// topology engine — sends fills and write-backs through Send, so the
// wire format, the guard and the recovery rule each live here and
// nowhere else.
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
	// IdxBits/WayBits are the remote-cache geometry the wire image
	// carries RemoteLIDs in. LIDBits is the pointer width an unguarded
	// image is priced at — the ends' RemoteLIDBits, which differs from
	// IdxBits+WayBits only under the tag-pointer ablation.
	IdxBits, WayBits, LIDBits int
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

	// mw and br are the marshal scratch and the receiver's reader over it:
	// each image is sent, corrupted and decoded before the next is marshaled.
	mw bits.Writer
	br bits.Reader
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
// has decode — the receiving end's from-bits decoder:
// RemoteEnd.DecodeFillFrom for a fill, HomeEnd.DecodeWritebackFrom for
// a write-back — reconstruct it from the image that crossed the link.
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
func (x *LinkTransfer) Send(p core.Payload, decode func(*bits.Reader) ([]byte, error), want []byte, lineAddr uint64) TransferResult {
	togglesBefore := x.Link.Toggles
	enc, wire := x.meter(p)
	res := TransferResult{Wire: wire}
	var derr error
	if x.Injector != nil {
		enc.NBits, res.Faulted = x.Injector.Corrupt(enc.Data, enc.NBits)
		enc, derr = core.Unguard(enc)
	}
	if derr == nil {
		x.br.Reset(enc.Data, enc.NBits)
		res.Data, derr = decode(&x.br)
		// A header that did not parse is the one failure no decode ran on.
		res.Decoded = !errors.Is(derr, core.ErrTruncatedPayload)
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
		_, resend := x.meter(core.Payload{Raw: want})
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

// meter marshals p — with the CRC-8 guard when an injector is on — and
// sends the image over the link, returning the image and its wire cost.
// An unguarded image is priced at the link's pointer width.
func (x *LinkTransfer) meter(p core.Payload) (compress.Encoded, int) {
	if x.Injector == nil {
		enc := p.MarshalInto(&x.mw, x.IdxBits, x.WayBits)
		return enc, x.Link.SendWire(enc.Data, p.Bits(x.LIDBits))
	}
	enc := p.MarshalGuardedInto(&x.mw, x.IdxBits, x.WayBits)
	return enc, x.Link.SendWire(enc.Data, enc.NBits)
}
