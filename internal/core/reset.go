package core

// This file is the in-place reset layer: every structure a link end
// owns can rewind to its freshly-constructed state without giving its
// backing arrays up. Release (pool.go) is for ends that are done for
// good; Reset is for ends that are about to run another stream — the
// streaming codec pools whole Encoder/Decoder instances across
// connections, and rebuilding multi-megabyte tables per stream would
// dwarf the per-stream work.

// Reset clears every bucket, keeping the backing array. A Reset table is
// indistinguishable from a newly built one of the same geometry.
func (h *HashTable) Reset() {
	clear(h.entries)
}

// Reset invalidates every slot, keeping the backing array.
func (w *WMT) Reset() {
	clear(w.entries)
}

// Reset drops every pending record and rewinds the sequence counter, so
// the next Add issues EvictSeq 1 again. The ring and its line buffers
// stay for reuse.
func (b *EvictionBuffer) Reset() {
	b.head, b.n, b.nextSeq = 0, 0, 0
}

// Reset rewinds the home end to its post-construction state: empty hash
// table, empty (private) way-map, zero AckSeq and stats. Scratch
// buffers and the memoized threshold table survive — they are
// content-independent — so a Reset end encodes with warm capacity. A
// shared way-map (SuperWMT view) is left untouched: it outlives any
// single link.
func (h *HomeEnd) Reset() {
	h.ht.Reset()
	if w, ok := h.wmt.(*WMT); ok {
		w.Reset()
	}
	h.AckSeq = 0
	h.Stats = HomeStats{}
}

// Reset rewinds the remote end to its post-construction state: empty
// hash table, empty eviction buffer, zero stats. Scratch buffers
// survive.
func (r *RemoteEnd) Reset() {
	r.ht.Reset()
	r.evbuf.Reset()
	r.Stats = RemoteStats{}
}
