package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"cable/internal/bits"
	"cable/internal/cache"
)

// linkHarness drives the full CABLE protocol between an inclusive
// home/remote cache pair, exactly as the memory-link simulator does:
// requests carry way-replacement info, evictions are non-silent, dirty
// evictions are write-back compressed, and every transfer is verified
// bit-exact after a wire marshal/unmarshal round trip.
type linkHarness struct {
	t        *testing.T
	lineSize int
	rng      *rand.Rand
	home     *cache.Cache
	remote   *cache.Cache
	he       *HomeEnd
	re       *RemoteEnd
	backing  map[uint64][]byte
	protos   [][]byte // prototype pool generating similar lines
	fills    int
	wbs      int
	// checkReference compares every fill's payload with referenceFill
	// (reference_test.go).
	checkReference bool
}

func newLinkHarness(t *testing.T, cfg Config, homeKB, remoteKB int) *linkHarness {
	return newLinkHarnessLines(t, cfg, homeKB, remoteKB, 64)
}

func newLinkHarnessLines(t *testing.T, cfg Config, homeKB, remoteKB, lineSize int) *linkHarness {
	t.Helper()
	home := cache.New(cache.Config{Name: "l4", SizeBytes: homeKB << 10, Ways: 16, LineSize: lineSize})
	remote := cache.New(cache.Config{Name: "llc", SizeBytes: remoteKB << 10, Ways: 8, LineSize: lineSize})
	he, err := NewHomeEnd(cfg, home, remote)
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewRemoteEnd(cfg, remote)
	if err != nil {
		t.Fatal(err)
	}
	h := &linkHarness{
		t: t, lineSize: lineSize, rng: rand.New(rand.NewSource(42)),
		home: home, remote: remote, he: he, re: re,
		backing: make(map[uint64][]byte),
	}
	for i := 0; i < 6; i++ {
		p := make([]byte, lineSize)
		h.rng.Read(p)
		h.protos = append(h.protos, p)
	}
	return h
}

// lineFor synthesizes deterministic, similarity-rich memory contents:
// most lines are near-copies of a prototype, some are zero, some random.
func (h *linkHarness) lineFor(addr uint64) []byte {
	rng := rand.New(rand.NewSource(int64(addr) * 2654435761))
	switch rng.Intn(10) {
	case 0:
		return make([]byte, h.lineSize)
	case 1:
		d := make([]byte, h.lineSize)
		rng.Read(d)
		return d
	default:
		d := append([]byte(nil), h.protos[rng.Intn(len(h.protos))]...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			binary.LittleEndian.PutUint32(d[rng.Intn(h.lineSize/4)*4:], rng.Uint32())
		}
		return d
	}
}

func (h *linkHarness) backingRead(addr uint64) []byte {
	if d, ok := h.backing[addr]; ok {
		return d
	}
	d := h.lineFor(addr)
	h.backing[addr] = d
	return d
}

// evictRemote performs a full remote eviction of the occupant of id,
// write-back compressing dirty data.
func (h *linkHarness) evictRemote(ev cache.Eviction) {
	if ev.State == cache.Modified {
		wb := h.re.EncodeWriteback(ev.Data)
		h.wbs++
		h.roundTripWire(&wb, h.remote)
		got, err := h.he.DecodeWriteback(wb)
		if err != nil {
			h.t.Fatalf("writeback decode: %v", err)
		}
		if !bytes.Equal(got, ev.Data) {
			h.t.Fatalf("writeback corrupted:\n got %x\nwant %x", got, ev.Data)
		}
		// Home updates its stale copy; the backing store too (the
		// harness home is small enough to evict).
		if l, _, ok := h.home.Probe(ev.LineAddr); ok {
			copy(l.Data, got)
		}
		h.backing[ev.LineAddr] = append([]byte(nil), got...)
	}
	seq := h.re.OnEviction(ev.ID, ev.Data)
	h.he.OnRemoteEviction(ev.ID, seq)
}

// ensureHome installs addr into the home cache, handling the inclusive
// back-invalidation of any home victim.
func (h *linkHarness) ensureHome(addr uint64) {
	if _, _, ok := h.home.Probe(addr); ok {
		return
	}
	idx := h.home.IndexOf(addr)
	way := h.home.VictimWay(idx)
	if victim, vok := h.home.LineAddrOf(cache.LineID{Index: idx, Way: way}); vok {
		// Inclusive hierarchy: evicting from home forces the remote
		// copy out first.
		h.he.OnHomeEviction(victim)
		if ev, ok := h.remote.Invalidate(victim); ok {
			h.evictRemote(ev)
		}
	}
	h.home.InsertAt(addr, h.backingRead(addr), cache.Shared, way)
}

// roundTripWire marshals and unmarshals the payload, asserting the wire
// format is lossless and that Bits() matches the marshaled length.
func (h *linkHarness) roundTripWire(p *Payload, geom *cache.Cache) {
	var w bits.Writer
	enc := p.MarshalInto(&w, geom.IndexBits(), geom.WayBits())
	if enc.NBits != p.Bits(geom.IndexBits()+geom.WayBits()) {
		h.t.Fatalf("Bits()=%d but marshal produced %d bits", p.Bits(geom.IndexBits()+geom.WayBits()), enc.NBits)
	}
	var got Payload
	if err := UnmarshalPayloadScratch(&got, new(PayloadScratch), enc, geom.IndexBits(), geom.WayBits(), h.lineSize); err != nil {
		h.t.Fatalf("unmarshal: %v", err)
	}
	got.AckSeq = p.AckSeq // not on the wire
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", *p) {
		h.t.Fatalf("wire round trip mismatch:\n got %+v\nwant %+v", got, *p)
	}
}

// decodeFrom decodes p's image out of the middle of a longer bit stream
// through DecodeFillFrom — the streaming codec's path — and demands
// that it stop on the image's last bit. (Every eviction of this request
// is already acknowledged and none of their slots can be referenced, so
// the image acknowledging nothing resolves the same lines.)
func (h *linkHarness) decodeFrom(p Payload) []byte {
	idx, way := h.remote.IndexBits(), h.remote.WayBits()
	lead := h.fills % 9
	junk := uint64(h.fills+1) * 0x9E3779B97F4A7C15
	var w bits.Writer
	w.WriteBits(junk, lead)
	p.AppendTo(&w, idx, way)
	w.WriteBits(junk, 64)
	r := bits.NewReader(w.Bytes(), w.Len())
	r.ReadBits(lead)
	data, err := h.re.DecodeFillFrom(r)
	if err != nil {
		h.t.Fatalf("DecodeFillFrom: %v", err)
	}
	if used := w.Len() - lead - r.Remaining(); used != p.Bits(idx+way) {
		h.t.Fatalf("DecodeFillFrom consumed %d bits of a %d-bit image", used, p.Bits(idx+way))
	}
	return append([]byte(nil), data...)
}

// request performs one remote-cache access.
func (h *linkHarness) request(addr uint64, write bool) {
	if line, id, ok := h.remote.Access(addr); ok {
		if write {
			if line.State == cache.Shared {
				h.re.OnUpgrade(id, line.Data)
				h.he.OnUpgrade(addr)
				line.State = cache.Modified
			}
			binary.LittleEndian.PutUint32(line.Data[h.rng.Intn(h.lineSize/4)*4:], h.rng.Uint32())
		}
		return
	}
	h.ensureHome(addr)
	idx := h.remote.IndexOf(addr)
	way := h.remote.VictimWay(idx)
	if victim, ok := h.remote.LineAddrOf(cache.LineID{Index: idx, Way: way}); ok {
		ev, _ := h.remote.Invalidate(victim)
		h.evictRemote(ev)
	}
	state := cache.Shared
	if write {
		state = cache.Modified
	}
	var ref Payload
	if h.checkReference {
		line, _, _ := h.home.Probe(addr)
		ref = referenceFill(h.he, h.remote, line.Data)
	}
	p, lat, err := h.he.EncodeFill(addr, state, way)
	if err != nil {
		h.t.Fatalf("encode fill %#x: %v", addr, err)
	}
	if h.checkReference {
		requireSamePayload(h.t, addr, p, ref, h.remote)
	}
	if lat.Total() > EndToEndLatency {
		h.t.Fatalf("latency %d exceeds worst case %d", lat.Total(), EndToEndLatency)
	}
	h.roundTripWire(&p, h.remote)
	streamed := h.decodeFrom(p)
	data, err := h.re.DecodeFill(p)
	if err != nil {
		h.t.Fatalf("decode fill %#x: %v", addr, err)
	}
	if !bytes.Equal(streamed, data) {
		h.t.Fatalf("fill %#x: DecodeFillFrom disagrees with DecodeFill:\n got %x\nwant %x", addr, streamed, data)
	}
	want, _, _ := h.home.Probe(addr)
	if !bytes.Equal(data, want.Data) {
		h.t.Fatalf("fill %#x corrupted (refs=%d):\n got %x\nwant %x", addr, len(p.Refs), data, want.Data)
	}
	h.fills++
	h.remote.InsertAt(addr, data, state, way)
	h.re.OnFillInstalled(cache.LineID{Index: idx, Way: way}, data, state)
	h.re.OnAck(p.AckSeq)
	if write {
		l, _, _ := h.remote.Probe(addr)
		binary.LittleEndian.PutUint32(l.Data[h.rng.Intn(h.lineSize/4)*4:], h.rng.Uint32())
	}
}

// checkInvariants asserts the structural consistency CABLE correctness
// rests on.
func (h *linkHarness) checkInvariants() {
	h.t.Helper()
	// Every WMT entry must describe a real, identical, Shared pair.
	h.he.WMT().ForEach(func(rid, hid cache.LineID) {
		rl := h.remote.ReadByID(rid)
		if rl == nil {
			h.t.Fatalf("WMT %v→%v: remote slot empty", rid, hid)
		}
		if rl.State != cache.Shared {
			h.t.Fatalf("WMT %v→%v: remote line state %v", rid, hid, rl.State)
		}
		hl := h.home.ReadByID(hid)
		if hl == nil {
			h.t.Fatalf("WMT %v→%v: home slot empty", rid, hid)
		}
		ra, _ := h.remote.LineAddrOf(rid)
		ha, _ := h.home.LineAddrOf(hid)
		if ra != ha {
			h.t.Fatalf("WMT %v→%v: addr mismatch %#x vs %#x", rid, hid, ra, ha)
		}
		if !bytes.Equal(rl.Data, hl.Data) {
			h.t.Fatalf("WMT %v→%v: data mismatch", rid, hid)
		}
	})
	// Every Shared remote line must be WMT-tracked (fills set it and
	// only upgrades/evictions clear it).
	h.remote.ForEach(func(addr uint64, id cache.LineID, l *cache.Line) {
		if l.State != cache.Shared {
			return
		}
		if _, ok := h.he.WMT().Reverse(id); !ok {
			h.t.Fatalf("shared remote line %#x at %v not tracked by WMT", addr, id)
		}
	})
}

func TestLinkProtocolExactness(t *testing.T) {
	for _, engine := range []string{"lbe", "cpack128", "gzip-seeded", "oracle", "bdi"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.EngineName = engine
			h := newLinkHarness(t, cfg, 64, 16)
			for i := 0; i < 4000; i++ {
				addr := uint64(h.rng.Intn(2048))
				h.request(addr, h.rng.Intn(4) == 0)
				if i%500 == 0 {
					h.checkInvariants()
				}
			}
			h.checkInvariants()
			if h.fills < 1000 {
				t.Fatalf("only %d fills exercised", h.fills)
			}
			if h.wbs == 0 {
				t.Fatal("no write-backs exercised")
			}
			if engine != "bdi" && h.he.Stats.DiffWins == 0 {
				t.Fatal("reference-seeded DIFF never won — search pipeline inert")
			}
		})
	}
}

func TestLinkCompressionBeatsBaseline(t *testing.T) {
	// On similarity-rich traffic CABLE's payloads must be much
	// smaller than raw and beat its own engine without references.
	cfg := DefaultConfig()
	h := newLinkHarness(t, cfg, 256, 32)
	for i := 0; i < 6000; i++ {
		h.request(uint64(h.rng.Intn(8192)), false)
	}
	ratio := float64(h.he.Stats.SourceBits) / float64(h.he.Stats.PayloadBits)
	if ratio < 2 {
		t.Fatalf("fill compression ratio %.2f < 2", ratio)
	}
	t.Logf("fill ratio %.2f, diff wins %d/%d, refs histogram %v",
		ratio, h.he.Stats.DiffWins, h.he.Stats.Fills, h.he.Stats.RefsUsed)
}

func TestLinkWritebackCompressionDisabled(t *testing.T) {
	// §IV-C: non-inclusive mode disables reference-based WBs.
	cfg := DefaultConfig()
	cfg.WritebackCompression = false
	h := newLinkHarness(t, cfg, 64, 16)
	for i := 0; i < 3000; i++ {
		h.request(uint64(h.rng.Intn(1024)), h.rng.Intn(2) == 0)
	}
	if h.re.Stats.WBDiffWins != 0 {
		t.Fatalf("WB DIFFs used despite WritebackCompression=false: %d", h.re.Stats.WBDiffWins)
	}
	if h.wbs == 0 {
		t.Fatal("no write-backs exercised")
	}
}

func TestEncodeFillMissingLine(t *testing.T) {
	cfg := DefaultConfig()
	h := newLinkHarness(t, cfg, 64, 16)
	if _, _, err := h.he.EncodeFill(0x999, cache.Shared, 0); err == nil {
		t.Fatal("EncodeFill of absent line must error")
	}
}

func TestZeroLineSkipsSearch(t *testing.T) {
	// A zero line compresses past the 16× threshold standalone, so
	// the search is skipped entirely (§III-E).
	cfg := DefaultConfig()
	h := newLinkHarness(t, cfg, 64, 16)
	addr := uint64(77)
	h.backing[addr] = make([]byte, 64)
	h.request(addr, false)
	if h.he.Stats.ThresholdSkips != 1 {
		t.Fatalf("threshold skips = %d, want 1", h.he.Stats.ThresholdSkips)
	}
	if h.he.Stats.RefsUsed[1]+h.he.Stats.RefsUsed[2]+h.he.Stats.RefsUsed[3] != 0 {
		t.Fatal("zero line should not carry references")
	}
}

// TestLinkProtocol128ByteLines exercises the whole protocol at the
// 128-byte line size some architectures use (§IV-D notes hash-table
// overhead halves there). CBVs grow to 32 bits and signature extraction
// scans twice the words.
func TestLinkProtocol128ByteLines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSearchSigs = 32
	h := newLinkHarnessLines(t, cfg, 128, 32, 128)
	for i := 0; i < 3000; i++ {
		h.request(uint64(h.rng.Intn(2048)), h.rng.Intn(4) == 0)
		if i%500 == 0 {
			h.checkInvariants()
		}
	}
	h.checkInvariants()
	if h.he.Stats.DiffWins == 0 {
		t.Fatal("no reference-seeded payloads at 128B lines")
	}
	ratio := float64(h.he.Stats.SourceBits) / float64(h.he.Stats.PayloadBits)
	if ratio < 2 {
		t.Fatalf("128B-line compression ratio %.2f < 2", ratio)
	}
	t.Logf("128B lines: ratio %.2f, diff wins %d/%d", ratio, h.he.Stats.DiffWins, h.he.Stats.Fills)
}
