package core

import "cable/internal/cache"

// EvictionBuffer solves the §IV-A race: the home cache may select a
// reference concurrently with its eviction from the remote cache, and a
// response pointing at a missing reference cannot be decompressed. The
// remote cache keeps a copy of each unacknowledged eviction, tagged with
// a sequence number (EvictSeq). The home cache echoes the last EvictSeq
// it has processed in every response; the remote side then knows, per
// referenced slot, whether the home meant the current occupant or a
// not-yet-acknowledged previous one.
//
// This works even over out-of-order transports such as Intel QPI.
//
// EvictSeqs are issued consecutively and acknowledged as a prefix, so
// the pending records sit in one ring in EvictSeq order — the n live
// ones are nextSeq-n+1 … nextSeq — and a released entry keeps its line
// buffer for a later Add.
type EvictionBuffer struct {
	ring    []evictRecord // power-of-two length; live records are ring[head..head+n)
	head, n int
	nextSeq uint64
}

type evictRecord struct {
	slot cache.LineID
	data []byte
}

// NewEvictionBuffer returns an empty buffer. Sequence numbers start at 1
// so that ack 0 means "home has seen nothing".
func NewEvictionBuffer() *EvictionBuffer { return &EvictionBuffer{} }

// at returns the i-th live record, oldest first.
func (b *EvictionBuffer) at(i int) *evictRecord { return &b.ring[(b.head+i)&(len(b.ring)-1)] }

// Add records an eviction from slot and returns its EvictSeq. The data
// is copied.
func (b *EvictionBuffer) Add(slot cache.LineID, data []byte) uint64 {
	if b.n == len(b.ring) {
		grown := make([]evictRecord, max(4, 2*len(b.ring)))
		for i := range b.n {
			grown[i] = *b.at(i)
		}
		b.ring, b.head = grown, 0
	}
	r := b.at(b.n)
	r.slot, r.data = slot, append(r.data[:0], data...)
	b.n++
	b.nextSeq++
	return b.nextSeq
}

// LastSeq returns the most recently issued EvictSeq.
func (b *EvictionBuffer) LastSeq() uint64 { return b.nextSeq }

// Resolve returns the data the home cache referenced at slot, given the
// EvictSeq the home acknowledged when it produced the response. If the
// home had already seen every eviction from this slot, nil is returned
// and the current cache occupant is the correct reference. Otherwise
// the home referenced the occupant as of its knowledge point: the
// oldest pending eviction with seq > ack. The result is valid until
// that record is released.
func (b *EvictionBuffer) Resolve(slot cache.LineID, ack uint64) []byte {
	for i := b.above(ack); i < b.n; i++ {
		if r := b.at(i); r.slot == slot {
			return r.data
		}
	}
	return nil
}

// Release drops every record with seq ≤ ack: the home cache has
// processed those evictions and will never reference them again.
func (b *EvictionBuffer) Release(ack uint64) {
	d := b.above(ack)
	b.head = (b.head + d) & (len(b.ring) - 1)
	b.n -= d
}

// above returns the index of the oldest live record with seq > ack, or
// n if there is none.
func (b *EvictionBuffer) above(ack uint64) int {
	before := b.nextSeq - uint64(b.n)
	if ack <= before {
		return 0
	}
	return int(min(ack-before, uint64(b.n)))
}

// Len returns the number of buffered evictions.
func (b *EvictionBuffer) Len() int { return b.n }
