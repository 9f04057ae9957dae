package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"cable/internal/cache"
)

func TestEvictionBufferBasics(t *testing.T) {
	b := NewEvictionBuffer()
	slot := cache.LineID{Index: 4, Way: 1}
	data := []byte{1, 2, 3}
	seq := b.Add(slot, data)
	if seq != 1 || b.LastSeq() != 1 || b.Len() != 1 {
		t.Fatalf("seq=%d last=%d len=%d", seq, b.LastSeq(), b.Len())
	}
	// Home acked nothing (ack 0): reference means the evicted copy.
	if got := b.Resolve(slot, 0); !bytes.Equal(got, data) {
		t.Fatalf("Resolve(ack=0) = %v", got)
	}
	// Home has processed the eviction: the current occupant is meant.
	if got := b.Resolve(slot, seq); got != nil {
		t.Fatalf("Resolve(ack=seq) = %v, want nil", got)
	}
	b.Release(seq)
	if b.Len() != 0 {
		t.Fatalf("len after release = %d", b.Len())
	}
}

func TestEvictionBufferCopiesData(t *testing.T) {
	b := NewEvictionBuffer()
	slot := cache.LineID{Index: 0, Way: 0}
	data := []byte{9}
	b.Add(slot, data)
	data[0] = 1
	if got := b.Resolve(slot, 0); got[0] != 9 {
		t.Fatal("buffer must copy eviction data")
	}
}

func TestEvictionBufferMultiplePendingSameSlot(t *testing.T) {
	// Two in-flight evictions from one slot: the reference target
	// depends on how much the home has seen.
	b := NewEvictionBuffer()
	slot := cache.LineID{Index: 2, Way: 2}
	s1 := b.Add(slot, []byte{1})
	s2 := b.Add(slot, []byte{2})
	if got := b.Resolve(slot, 0); got[0] != 1 {
		t.Fatalf("ack=0 → occupant before first eviction, got %v", got)
	}
	if got := b.Resolve(slot, s1); got[0] != 2 {
		t.Fatalf("ack=s1 → occupant before second eviction, got %v", got)
	}
	if got := b.Resolve(slot, s2); got != nil {
		t.Fatalf("ack=s2 → current occupant, got %v", got)
	}
	b.Release(s1)
	if b.Len() != 1 {
		t.Fatalf("partial release kept %d", b.Len())
	}
}

func TestEvictionBufferUnknownSlot(t *testing.T) {
	b := NewEvictionBuffer()
	if got := b.Resolve(cache.LineID{Index: 9, Way: 9}, 0); got != nil {
		t.Fatal("unknown slot should resolve to nil")
	}
}

// refEvictionBuffer is the map-of-slices eviction buffer the ring
// replaced, kept verbatim (names aside) as the reference of the
// differential tests below.
type refEvictionBuffer struct {
	pending map[cache.LineID][]refEvictRecord
	nextSeq uint64
}

type refEvictRecord struct {
	seq  uint64
	data []byte
}

func newRefEvictionBuffer() *refEvictionBuffer {
	return &refEvictionBuffer{pending: make(map[cache.LineID][]refEvictRecord)}
}

func (b *refEvictionBuffer) Add(slot cache.LineID, data []byte) uint64 {
	b.nextSeq++
	b.pending[slot] = append(b.pending[slot], refEvictRecord{seq: b.nextSeq, data: append([]byte(nil), data...)})
	return b.nextSeq
}

func (b *refEvictionBuffer) LastSeq() uint64 { return b.nextSeq }

func (b *refEvictionBuffer) Resolve(slot cache.LineID, ack uint64) []byte {
	for _, r := range b.pending[slot] {
		if r.seq > ack {
			return r.data
		}
	}
	return nil
}

func (b *refEvictionBuffer) Release(ack uint64) {
	for slot, recs := range b.pending {
		keep := recs[:0]
		for _, r := range recs {
			if r.seq > ack {
				keep = append(keep, r)
			}
		}
		if len(keep) == 0 {
			delete(b.pending, slot)
		} else {
			b.pending[slot] = keep
		}
	}
}

func (b *refEvictionBuffer) Len() int {
	n := 0
	for _, recs := range b.pending {
		n += len(recs)
	}
	return n
}

func (b *refEvictionBuffer) Reset() {
	clear(b.pending)
	b.nextSeq = 0
}

// evbufSlots is the parity tests' slot alphabet: eight slots, so the
// ring outgrows its first capacity (4) long before any slot holds three
// pending evictions.
var evbufSlots = func() (s []cache.LineID) {
	for i := 0; i < 8; i++ {
		s = append(s, cache.LineID{Index: i / 2, Way: i % 2})
	}
	return s
}()

// evbufCoverage is what one operation sequence exercised.
type evbufCoverage struct{ maxPerSlot, maxLen, partial, resets int }

// checkEvictionBufferParity runs ops through the ring and the reference
// and, after every operation, compares Len, LastSeq and Resolve for
// every slot at every ack from 0 to LastSeq+1. Each op byte picks Add
// (to a slot with fewer than three pending evictions, with 2–8 bytes
// unique to the eviction), Release at an ack from 0 to LastSeq+1, or
// rarely Reset.
func checkEvictionBufferParity(t *testing.T, ops []byte) evbufCoverage {
	t.Helper()
	b, ref := NewEvictionBuffer(), newRefEvictionBuffer()
	var cov evbufCoverage
	for i, op := range ops {
		switch {
		case op%16 == 15:
			b.Reset()
			ref.Reset()
			cov.resets++
		case op%16 >= 10:
			ack := uint64(op) * 7919 % (ref.LastSeq() + 2)
			if n := ref.Len(); ack > 0 && ack < ref.LastSeq() && n > 1 {
				cov.partial++
			}
			b.Release(ack)
			ref.Release(ack)
		default:
			slot := evbufSlots[op%8]
			if len(ref.pending[slot]) == 3 {
				continue
			}
			data := make([]byte, 2+int(op>>4)%7)
			binary.LittleEndian.PutUint16(data, uint16(i))
			data[len(data)-1] ^= op
			if got, want := b.Add(slot, data), ref.Add(slot, data); got != want {
				t.Fatalf("op %d: Add issued EvictSeq %d, reference %d", i, got, want)
			}
			data[0]++ // both must have copied
			cov.maxPerSlot = max(cov.maxPerSlot, len(ref.pending[slot]))
		}
		cov.maxLen = max(cov.maxLen, ref.Len())
		if b.Len() != ref.Len() || b.LastSeq() != ref.LastSeq() {
			t.Fatalf("op %d: Len/LastSeq %d/%d, reference %d/%d", i, b.Len(), b.LastSeq(), ref.Len(), ref.LastSeq())
		}
		for _, slot := range evbufSlots {
			for ack := uint64(0); ack <= ref.LastSeq()+1; ack++ {
				got, want := b.Resolve(slot, ack), ref.Resolve(slot, ack)
				if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
					t.Fatalf("op %d: Resolve(%v, ack %d) = %v, reference %v", i, slot, ack, got, want)
				}
			}
		}
	}
	return cov
}

// TestEvictionBufferMatchesReference drives the ring and the map-based
// reference through seeded random operation sequences and checks that
// together they reached every corner: three evictions pending on one
// slot, partial releases, resets, and more pending records than the
// ring's first capacity.
func TestEvictionBufferMatchesReference(t *testing.T) {
	var cov evbufCoverage
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 300)
		for i := range ops {
			// Mostly adds early, so the ring fills before releases drain it.
			if i < 40 {
				ops[i] = byte(rng.Intn(10)) | byte(rng.Intn(16))<<4
			} else {
				rng.Read(ops[i : i+1])
			}
		}
		c := checkEvictionBufferParity(t, ops)
		cov.maxPerSlot, cov.maxLen = max(cov.maxPerSlot, c.maxPerSlot), max(cov.maxLen, c.maxLen)
		cov.partial, cov.resets = cov.partial+c.partial, cov.resets+c.resets
	}
	if cov.maxPerSlot < 3 || cov.maxLen <= 4 || cov.partial == 0 || cov.resets == 0 {
		t.Fatalf("sequences missed a corner: %+v", cov)
	}
}

// FuzzEvictionBufferParity is TestEvictionBufferMatchesReference over
// arbitrary operation sequences.
func FuzzEvictionBufferParity(f *testing.F) {
	f.Add([]byte{0, 8, 0x10, 0x20, 1, 2, 3, 4, 5, 6, 7, 10, 0x30, 11, 15, 0, 9})
	f.Add([]byte{0, 0x10, 0x20, 0x30, 1, 9, 0x19, 12, 13, 0xfa, 14, 0xff})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		checkEvictionBufferParity(t, ops)
	})
}

// TestOutOfOrderEvictionRace reproduces the §IV-A race end to end: the
// home end selects a reference, the remote cache evicts it before the
// response arrives, and the eviction buffer must still decompress the
// response correctly.
func TestOutOfOrderEvictionRace(t *testing.T) {
	cfg := DefaultConfig()
	h := newLinkHarness(t, cfg, 256, 16)

	// Warm up until the encoder is using references.
	for i := 0; h.he.Stats.DiffWins == 0 && i < 4000; i++ {
		h.request(uint64(h.rng.Intn(512)), false)
	}
	if h.he.Stats.DiffWins == 0 {
		t.Fatal("never produced a reference-seeded payload")
	}

	// Find an address whose fill uses references, then race it.
	rng := rand.New(rand.NewSource(99))
	for tries := 0; tries < 3000; tries++ {
		addr := uint64(rng.Intn(4096)) + 8192 // fresh range → misses
		h.backing[addr] = append([]byte(nil), h.protos[rng.Intn(len(h.protos))]...)
		binary.LittleEndian.PutUint32(h.backing[addr][8:], rng.Uint32())

		h.ensureHome(addr)
		idx := h.remote.IndexOf(addr)
		way := h.remote.VictimWay(idx)
		if victim, ok := h.remote.LineAddrOf(cache.LineID{Index: idx, Way: way}); ok {
			ev, _ := h.remote.Invalidate(victim)
			h.evictRemote(ev)
		}
		p, _, err := h.he.EncodeFill(addr, cache.Shared, way)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Refs) == 0 {
			continue
		}
		// RACE: before the payload "arrives", the remote cache evicts
		// the referenced line. The eviction notice has NOT reached the
		// home (it is in flight), so p.AckSeq predates it.
		refSlot := p.Refs[0]
		refAddr, ok := h.remote.LineAddrOf(refSlot)
		if !ok {
			t.Fatalf("reference %v not resident before race", refSlot)
		}
		ev, _ := h.remote.Invalidate(refAddr)
		h.re.OnEviction(ev.ID, ev.Data) // seq issued, notice in flight

		// The payload now arrives. Without the buffer the slot is
		// empty and decode would fail; with it, decode is exact.
		data, err := h.re.DecodeFill(p)
		if err != nil {
			t.Fatalf("decode during race: %v", err)
		}
		want, _, _ := h.home.Probe(addr)
		if !bytes.Equal(data, want.Data) {
			t.Fatal("race corrupted fill data")
		}
		if h.re.Stats.RescuedRefs == 0 {
			t.Fatal("eviction buffer was not used")
		}
		// Deliver the in-flight eviction notice and install the fill
		// so the harness stays consistent.
		h.he.OnRemoteEviction(ev.ID, h.re.EvictionBuffer().LastSeq())
		h.remote.InsertAt(addr, data, cache.Shared, way)
		h.re.OnFillInstalled(cache.LineID{Index: idx, Way: way}, data, cache.Shared)
		h.re.OnAck(h.re.EvictionBuffer().LastSeq())
		h.checkInvariants()
		return
	}
	t.Fatal("could not construct a referencing fill to race")
}

// TestRaceWithRefill extends the race: the evicted slot is refilled
// with a different line before the stale-referencing payload arrives.
// ack-based resolution must pick the buffered copy, not the new
// occupant.
func TestRaceWithRefill(t *testing.T) {
	cfg := DefaultConfig()
	h := newLinkHarness(t, cfg, 256, 16)
	for i := 0; h.he.Stats.DiffWins == 0 && i < 4000; i++ {
		h.request(uint64(h.rng.Intn(512)), false)
	}
	rng := rand.New(rand.NewSource(7))
	for tries := 0; tries < 3000; tries++ {
		addr := uint64(rng.Intn(4096)) + 16384
		h.backing[addr] = append([]byte(nil), h.protos[rng.Intn(len(h.protos))]...)
		h.ensureHome(addr)
		idx := h.remote.IndexOf(addr)
		way := h.remote.VictimWay(idx)
		if victim, ok := h.remote.LineAddrOf(cache.LineID{Index: idx, Way: way}); ok {
			ev, _ := h.remote.Invalidate(victim)
			h.evictRemote(ev)
		}
		p, _, err := h.he.EncodeFill(addr, cache.Shared, way)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Refs) == 0 {
			continue
		}
		refSlot := p.Refs[0]
		refAddr, _ := h.remote.LineAddrOf(refSlot)
		ev, _ := h.remote.Invalidate(refAddr)
		h.re.OnEviction(ev.ID, ev.Data)
		// Refill the same slot with different content (a local
		// write allocation — no home interaction needed for the test).
		junk := make([]byte, 64)
		rng.Read(junk)
		h.remote.InsertAt(refAddr^1, junk, cache.Modified, refSlot.Way)

		data, err := h.re.DecodeFill(p)
		if err != nil {
			t.Fatalf("decode during refill race: %v", err)
		}
		want, _, _ := h.home.Probe(addr)
		if !bytes.Equal(data, want.Data) {
			t.Fatal("refill race corrupted fill: decoder used the new occupant")
		}
		return
	}
	t.Fatal("could not construct the refill race")
}
