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
type EvictionBuffer struct {
	pending map[cache.LineID][]evictRecord
	nextSeq uint64
}

type evictRecord struct {
	seq  uint64
	data []byte
}

// NewEvictionBuffer returns an empty buffer. Sequence numbers start at 1
// so that ack 0 means "home has seen nothing".
func NewEvictionBuffer() *EvictionBuffer {
	return &EvictionBuffer{pending: make(map[cache.LineID][]evictRecord)}
}

// Add records an eviction from slot and returns its EvictSeq. The data
// is copied.
func (b *EvictionBuffer) Add(slot cache.LineID, data []byte) uint64 {
	b.nextSeq++
	b.pending[slot] = append(b.pending[slot], evictRecord{seq: b.nextSeq, data: append([]byte(nil), data...)})
	return b.nextSeq
}

// LastSeq returns the most recently issued EvictSeq.
func (b *EvictionBuffer) LastSeq() uint64 { return b.nextSeq }

// Resolve returns the data the home cache referenced at slot, given the
// EvictSeq the home acknowledged when it produced the response. If the
// home had already seen every eviction from this slot, nil is returned
// and the current cache occupant is the correct reference. Otherwise
// the home referenced the occupant as of its knowledge point: the
// oldest pending eviction with seq > ack.
func (b *EvictionBuffer) Resolve(slot cache.LineID, ack uint64) []byte {
	for _, r := range b.pending[slot] {
		if r.seq > ack {
			return r.data
		}
	}
	return nil
}

// Release drops every record with seq ≤ ack: the home cache has
// processed those evictions and will never reference them again.
func (b *EvictionBuffer) Release(ack uint64) {
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

// Len returns the number of buffered evictions.
func (b *EvictionBuffer) Len() int {
	n := 0
	for _, recs := range b.pending {
		n += len(recs)
	}
	return n
}
