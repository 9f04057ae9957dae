package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/obs"
)

// xferRig is a warm home/remote end pair with one pending transfer of
// each kind, built identically every time so a fault pattern found on
// one rig replays on the next.
type xferRig struct {
	home, remote *cache.Cache
	he           *core.HomeEnd
	re           *core.RemoteEnd
	// fillAddr is resident at home and absent from the remote; wbData
	// is a dirty near-copy of lines the remote holds Shared.
	fillAddr uint64
	fillWay  int
	wbData   []byte
}

func newXferRig(t *testing.T) *xferRig {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	r := &xferRig{
		home:   cache.New(cache.Config{Name: "h", SizeBytes: 64 << 10, Ways: 16, LineSize: 64}),
		remote: cache.New(cache.Config{Name: "r", SizeBytes: 16 << 10, Ways: 8, LineSize: 64}),
	}
	var err error
	if r.he, err = core.NewHomeEnd(cfg, r.home, r.remote); err != nil {
		t.Fatal(err)
	}
	if r.re, err = core.NewRemoteEnd(cfg, r.remote); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	proto := make([]byte, 64)
	rng.Read(proto)
	variant := func() []byte {
		d := append([]byte(nil), proto...)
		binary.LittleEndian.PutUint32(d[rng.Intn(16)*4:], rng.Uint32())
		return d
	}
	// Warm both ends with Shared near-copies, straight through the ends.
	for addr := uint64(0); addr < 24; addr++ {
		r.home.InsertAt(addr, variant(), cache.Shared, r.home.VictimWay(r.home.IndexOf(addr)))
		way := r.remote.VictimWay(r.remote.IndexOf(addr))
		p, _, err := r.he.EncodeFill(addr, cache.Shared, way)
		if err != nil {
			t.Fatal(err)
		}
		data, err := r.re.DecodeFill(p)
		if err != nil {
			t.Fatal(err)
		}
		r.remote.InsertAt(addr, data, cache.Shared, way)
		r.re.OnFillInstalled(cache.LineID{Index: r.remote.IndexOf(addr), Way: way}, data, cache.Shared)
	}
	r.fillAddr = 1000
	r.home.InsertAt(r.fillAddr, variant(), cache.Shared, r.home.VictimWay(r.home.IndexOf(r.fillAddr)))
	r.fillWay = r.remote.VictimWay(r.remote.IndexOf(r.fillAddr))
	r.wbData = variant()
	return r
}

// decoder is the from-bits decoder form Send takes.
type decoder = func(br *bits.Reader) ([]byte, error)

// decoder returns the rig's receiving end for a fill (acknowledging
// ack) or a write-back.
func (r *xferRig) decoder(writeback bool, ack uint64) decoder {
	if writeback {
		return r.he.DecodeWritebackFrom
	}
	return func(br *bits.Reader) ([]byte, error) { return r.re.DecodeFillFrom(br, ack) }
}

// transfer encodes the rig's pending fill or write-back and hands back
// everything Send needs.
func (r *xferRig) transfer(t *testing.T, writeback bool) (core.Payload, decoder, []byte) {
	t.Helper()
	if writeback {
		return r.re.EncodeWriteback(r.wbData), r.decoder(true, 0), r.wbData
	}
	p, _, err := r.he.EncodeFill(r.fillAddr, cache.Shared, r.fillWay)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := r.home.Probe(r.fillAddr)
	return p, r.decoder(false, p.AckSeq), line.Data
}

func (r *xferRig) newTransfer(inj *fault.Injector, verify bool) *LinkTransfer {
	return &LinkTransfer{
		Link: link.New(link.DefaultConfig()), Injector: inj,
		IdxBits: r.remote.IndexBits(), WayBits: r.remote.WayBits(),
		LIDBits: r.he.RemoteLIDBits(), Verify: verify,
		degrade: &degradeCounters{reg: obs.NewRegistry()},
	}
}

// findFault searches seeds for an injector whose first Corrupt, applied
// to image, satisfies want. The returned injector is fresh: its first
// Corrupt on the same image does exactly what the search saw.
func findFault(t *testing.T, cfg fault.Config, image compress.Encoded, want func(st fault.Stats, received compress.Encoded) bool) *fault.Injector {
	t.Helper()
	for seed := uint64(1); seed < 200000; seed++ {
		cfg.Seed = seed
		probe := fault.NewIn(cfg, obs.NewRegistry())
		buf := append([]byte(nil), image.Data...)
		nb, _ := probe.Corrupt(buf, image.NBits)
		if want(probe.Stats, compress.Encoded{Data: buf, NBits: nb}) {
			return fault.NewIn(cfg, obs.NewRegistry())
		}
	}
	t.Fatal("no seed produces the wanted fault pattern")
	return nil
}

// TestLinkTransferFaultPatterns sends one fill and one write-back
// through each kind of damage the injector can do and checks the
// accounting contract on every one.
func TestLinkTransferFaultPatterns(t *testing.T) {
	patterns := []struct {
		name    string
		cfg     fault.Config
		want    func(st fault.Stats, rx compress.Encoded, decode decoder) bool
		faulted bool
	}{
		{"clean", fault.Config{BitRate: 1e-12},
			func(st fault.Stats, _ compress.Encoded, _ decoder) bool { return st.Corrupted == 0 }, false},
		{"single-bit-flip", fault.Config{BitRate: 0.01},
			func(st fault.Stats, _ compress.Encoded, _ decoder) bool { return st.BitsFlipped == 1 }, true},
		{"truncation", fault.Config{TruncRate: 1},
			func(st fault.Stats, _ compress.Encoded, _ decoder) bool { return st.Truncations == 1 }, true},
		// A multi-bit pattern the CRC-8 does not see: the header parses,
		// so only the ground truth (or the every-touched-frame rule) can
		// keep it out of the cache.
		{"crc-alias", fault.Config{BitRate: 0.03},
			func(st fault.Stats, rx compress.Encoded, decode decoder) bool {
				if st.BitsFlipped < 2 {
					return false
				}
				body, err := core.Unguard(rx)
				if err != nil {
					return false
				}
				_, err = decode(body.Reader())
				return !errors.Is(err, core.ErrTruncatedPayload)
			}, true},
	}
	for _, pat := range patterns {
		for _, writeback := range []bool{false, true} {
			name := pat.name + "/fill"
			if writeback {
				name = pat.name + "/writeback"
			}
			t.Run(name, func(t *testing.T) {
				rig, probe := newXferRig(t), newXferRig(t)
				p, decode, want := rig.transfer(t, writeback)
				image := p.MarshalGuarded(rig.remote.IndexBits(), rig.remote.WayBits())
				inj := findFault(t, pat.cfg, image, func(st fault.Stats, rx compress.Encoded) bool {
					return pat.want(st, rx, probe.decoder(writeback, 0))
				})
				// Verify stays on: a damaged frame must never reach the
				// clean-image checks.
				x := rig.newTransfer(inj, true)
				truth := append([]byte(nil), want...)
				res := x.Send(p, decode, want, 7)

				if res.Faulted != pat.faulted || res.Degraded != pat.faulted {
					t.Fatalf("faulted=%v degraded=%v, want both %v", res.Faulted, res.Degraded, pat.faulted)
				}
				// CRC-8 catches every single-bit flip before the decoder
				// runs; an aliasing pattern gets all the way through it.
				if pat.name == "single-bit-flip" && res.Decoded || pat.name == "crc-alias" && !res.Decoded {
					t.Fatalf("decoded=%v on a %s frame", res.Decoded, pat.name)
				}
				if len(p.Refs) == 0 {
					t.Fatal("rig produced a payload without references; the test would not cover reference resolution")
				}
				n := uint64(0)
				if pat.faulted {
					n = 1
				}
				if x.FaultsInjected != n || x.DecodeErrors != n || x.RawFallbacks != n {
					t.Fatalf("faults/decodeErrors/rawFallbacks = %d/%d/%d, want %d each",
						x.FaultsInjected, x.DecodeErrors, x.RawFallbacks, n)
				}
				if !bytes.Equal(res.Data, truth) {
					t.Fatalf("receiver holds %x, want %x", res.Data, truth)
				}
				// Wire = the guarded attempt, plus a guarded raw resend.
				oracle := link.New(link.DefaultConfig())
				wantWire := oracle.Send(image.NBits)
				if pat.faulted {
					wantWire += oracle.Send(1 + 64*8 + 8)
				}
				if res.Wire != wantWire || x.Link.WireBits != uint64(wantWire) {
					t.Fatalf("wire %d (link metered %d), want %d", res.Wire, x.Link.WireBits, wantWire)
				}
				if res.Toggles != x.Link.Toggles {
					t.Fatalf("result toggles %d, link %d", res.Toggles, x.Link.Toggles)
				}
				snap := x.degrade.reg.Snapshot(false).Counters
				if _, registered := snap["sim.faults_injected"]; registered != pat.faulted {
					t.Fatalf("sim.* degradation counters registered=%v on a %s frame", registered, pat.name)
				}
				if snap["sim.faults_injected"] != n || snap["sim.decode_errors"] != n || snap["sim.raw_fallbacks"] != n {
					t.Fatalf("obs counters %v, want %d each", snap, n)
				}
			})
		}
	}
}

// TestLinkTransferVerify: Verify polices clean images only. A clean
// image that mis-decodes, or fails to decode, panics; with Verify off
// the failed decode degrades to a counted raw resend instead.
func TestLinkTransferVerify(t *testing.T) {
	garble := func(decode decoder) decoder {
		return func(br *bits.Reader) ([]byte, error) {
			out, err := decode(br)
			out = append([]byte(nil), out...)
			out[3] ^= 1
			return out, err
		}
	}
	fail := func(*bits.Reader) ([]byte, error) { return nil, core.ErrCorruptDiff }
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return
	}
	for _, guarded := range []bool{false, true} {
		// A rate too small to ever fire: the guarded path, every image clean.
		inj := func() *fault.Injector {
			if !guarded {
				return nil
			}
			return fault.NewIn(fault.Config{BitRate: 1e-12}, obs.NewRegistry())
		}
		rig := newXferRig(t)
		p, decode, want := rig.transfer(t, false)
		if !panics(func() { rig.newTransfer(inj(), true).Send(p, garble(decode), want, 7) }) {
			t.Errorf("guarded=%v: Verify let a clean mis-decode through", guarded)
		}
		if !panics(func() { rig.newTransfer(inj(), true).Send(p, fail, want, 7) }) {
			t.Errorf("guarded=%v: Verify let a clean decode error through", guarded)
		}
		x := rig.newTransfer(inj(), false)
		res := x.Send(p, fail, want, 7)
		if !res.Degraded || res.Faulted || x.FaultsInjected != 0 || x.DecodeErrors != 1 || x.RawFallbacks != 1 {
			t.Errorf("guarded=%v: unverified decode error: %+v, counts %d/%d/%d; want a degraded, unfaulted transfer",
				guarded, res, x.FaultsInjected, x.DecodeErrors, x.RawFallbacks)
		}
		if !bytes.Equal(res.Data, want) {
			t.Errorf("guarded=%v: resend delivered %x, want %x", guarded, res.Data, want)
		}
	}
}

// TestLinkTransferScratchIsolation: whatever the caller does to the
// buffer a Send returned, the next Send is unaffected — the buffer is
// the decoding end's scratch, on the clean path and on the guarded one.
func TestLinkTransferScratchIsolation(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		run := func(scribble bool) (fill, wb TransferResult, fillData, wbData []byte) {
			rig := newXferRig(t)
			var inj *fault.Injector
			if guarded {
				inj = fault.NewIn(fault.Config{BitRate: 1e-12}, obs.NewRegistry())
			}
			x := rig.newTransfer(inj, true)
			p, decode, want := rig.transfer(t, false)
			fill = x.Send(p, decode, want, 7)
			fillData = append([]byte(nil), fill.Data...)
			if scribble {
				for i := range fill.Data {
					fill.Data[i] = 0xFF
				}
			}
			p, decode, want = rig.transfer(t, true)
			wb = x.Send(p, decode, want, 8)
			wbData = append([]byte(nil), wb.Data...)
			return
		}
		f0, w0, fd0, wd0 := run(false)
		f1, w1, fd1, wd1 := run(true)
		if f0.Wire != f1.Wire || w0.Wire != w1.Wire || w0.Toggles != w1.Toggles ||
			!bytes.Equal(fd0, fd1) || !bytes.Equal(wd0, wd1) {
			t.Errorf("guarded=%v: scribbling on the returned buffer changed the next transfer", guarded)
		}
	}
}
