package core

import "cable/internal/pool"

// This file pools the big per-link table backings. Every simulation
// cell builds a fresh chip, and the dominant allocations of that
// startup are the flat arrays behind the signature hash tables and the
// WMT — hundreds of KB to MB each at paper geometries. Under -parallel
// the workers hammer the allocator (and the GC) with short-lived copies
// of the same few sizes, so released tables go into size-segregated
// sync.Pools instead and the next cell reuses them.
//
// Release is opt-in and must only be called when the owning structure
// is provably unreachable — the memoizing experiment runner does it for
// chips whose results have been deep-copied (memoized results carry no
// chip pointer). Released structures nil their backing so accidental
// reuse fails fast instead of corrupting a pooled array.

var (
	htEntryPool  pool.Slices[entry]
	wmtEntryPool pool.Slices[wmtEntry]
)

// Release returns the table's backing array to the pool. The table is
// unusable afterwards.
func (h *HashTable) Release() {
	htEntryPool.Put(h.entries)
	h.entries = nil
}

// Release returns the WMT's backing array to the pool. The table is
// unusable afterwards.
func (w *WMT) Release() {
	wmtEntryPool.Put(w.entries)
	w.entries = nil
}

// Release recycles the home end's table backings. Only a
// privately-owned WMT is released — a shared SuperWMT view outlives any
// single link. The end is unusable afterwards.
func (h *HomeEnd) Release() {
	h.ht.Release()
	if w, ok := h.wmt.(*WMT); ok {
		w.Release()
	}
	h.ht = nil
	h.wmt = nil
	h.home = nil
}

// Release recycles the remote end's table backing. The end is unusable
// afterwards.
func (r *RemoteEnd) Release() {
	r.ht.Release()
	r.ht = nil
	r.remote = nil
}
