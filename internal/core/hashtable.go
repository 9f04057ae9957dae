// Package core implements the CABLE framework — the paper's primary
// contribution: a point-to-point link encoder that re-purposes the data
// already stored in coherent caches as a massive, scalable compression
// dictionary.
//
// A link is a HomeEnd (the larger cache, e.g. the off-chip L4, which
// services and compresses requests) paired with a RemoteEnd (the smaller
// cache, e.g. the on-chip LLC, which receives and decompresses). The
// home end owns a signature hash table and a Way-Map Table; the remote
// end owns its own hash table for write-back compression. Both sides
// synchronize these structures from the coherence events they already
// observe (§III-F), so no extra coherence traffic is needed.
package core

import (
	"fmt"

	"cable/internal/cache"
	"cable/internal/sig"
)

// HashTable maps line signatures to the LineIDs of cache lines carrying
// them (Fig 7). It is a plain SRAM-style structure, not a CAM: each
// entry (bucket) holds BucketDepth LineIDs with FIFO replacement.
// Lookups are inexact — hash collisions yield false positives that the
// ranking step filters out by reading the actual data.
type HashTable struct {
	// entries is the flat bucket array: bucket b occupies
	// entries[b*depth : (b+1)*depth]. One contiguous allocation
	// instead of one per bucket mirrors the SRAM it models and keeps
	// bucket probes on at most two cache lines.
	entries  []entry
	nbuckets int
	depth    int
}

// entry is one slot: a LineID packed into a word, (Index<<8 | Way) + 1,
// or zero for an empty slot — 4 bytes where the unpacked pair and its
// valid flag took 24, so a 2-deep bucket is one 8-byte load and a
// cleared table is an empty one. The paper's LineID is 17 bits (§III-D);
// this form holds 2^24-1 sets of up to 256 ways.
type entry uint32

const entryWayBits = 8

// packEntry panics on a LineID the packed form cannot hold: no cache
// geometry the tree can build comes near it, and an aliased entry would
// be a silently wrong reference.
func packEntry(id cache.LineID) entry {
	if uint(id.Way) >= 1<<entryWayBits || uint(id.Index) >= 1<<(32-entryWayBits)-1 {
		panic(fmt.Sprintf("core: hash table cannot hold LineID %+v", id))
	}
	return entry(id.Index<<entryWayBits|id.Way) + 1
}

// id unpacks a non-empty slot.
func (e entry) id() cache.LineID {
	e--
	return cache.LineID{Index: int(e >> entryWayBits), Way: int(e & (1<<entryWayBits - 1))}
}

// NewHashTable builds a table with the given number of buckets (rounded
// up to a power of two) and bucket depth. A "full-sized" table has as
// many entries as the home cache has lines (§IV-D).
func NewHashTable(buckets, depth int) *HashTable {
	if buckets < 1 {
		buckets = 1
	}
	n := 1
	for n < buckets {
		n <<= 1
	}
	return &HashTable{entries: htEntryPool.Get(n * depth), nbuckets: n, depth: depth}
}

// NumBuckets returns the bucket count.
func (h *HashTable) NumBuckets() int { return h.nbuckets }

// Depth returns the bucket depth.
func (h *HashTable) Depth() int { return h.depth }

func (h *HashTable) bucket(s sig.Signature) []entry {
	b := int(uint32(s) & uint32(h.nbuckets-1))
	return h.entries[b*h.depth : (b+1)*h.depth]
}

// Insert records that the line at id carries signature s. Within a
// bucket the oldest entry is displaced (FIFO): the most recent lines
// keep their signatures, which is what lets a half-sized table "retain
// signatures of the most recent half" (§IV-D). displaced reports that
// the bucket was full and a live entry made way.
func (h *HashTable) Insert(s sig.Signature, id cache.LineID) (displaced bool) {
	b, e := h.bucket(s), packEntry(id)
	for i := range b {
		if b[i] == e {
			return false // already present
		}
	}
	for i := range b {
		if b[i] == 0 {
			// Shift to keep FIFO order: newest at the end.
			copy(b[i:], b[i+1:])
			b[len(b)-1] = e
			return false
		}
	}
	copy(b, b[1:])
	b[len(b)-1] = e
	return true
}

// Lookup appends the LineIDs stored under signature s to dst and
// returns it.
func (h *HashTable) Lookup(s sig.Signature, dst []cache.LineID) []cache.LineID {
	for _, e := range h.bucket(s) {
		if e != 0 {
			dst = append(dst, e.id())
		}
	}
	return dst
}

// Remove deletes the (s, id) association if present — the precise
// invalidation CABLE performs when caches desynchronize (§III-B).
func (h *HashTable) Remove(s sig.Signature, id cache.LineID) bool {
	b, e := h.bucket(s), packEntry(id)
	for i := range b {
		if b[i] == e {
			copy(b[i:], b[i+1:])
			b[len(b)-1] = 0
			return true
		}
	}
	return false
}

// Occupancy counts live entries (for tests and reports).
func (h *HashTable) Occupancy() int {
	n := 0
	for _, e := range h.entries {
		if e != 0 {
			n++
		}
	}
	return n
}

// ForEach visits the LineID of every live entry (for the pair-level
// synchronization checker).
func (h *HashTable) ForEach(fn func(id cache.LineID)) {
	for _, e := range h.entries {
		if e != 0 {
			fn(e.id())
		}
	}
}

// SizeBits returns the storage cost of the table given the LineID
// width, for the Table III area model.
func (h *HashTable) SizeBits(lineIDBits int) int {
	return h.nbuckets * h.depth * (lineIDBits + 1)
}
