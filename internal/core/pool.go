package core

import "sync"

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

// slicePool hands out zeroed slices of one element type, segregated by
// exact length. Misses allocate; Put zeroes eagerly so Get never hands
// back stale entries.
type slicePool[T any] struct {
	classes sync.Map // length -> *sync.Pool of []T
}

func (p *slicePool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	if c, ok := p.classes.Load(n); ok {
		if v := c.(*sync.Pool).Get(); v != nil {
			return v.([]T)
		}
	}
	return make([]T, n)
}

func (p *slicePool[T]) put(s []T) {
	n := len(s)
	if n == 0 {
		return
	}
	clear(s)
	c, ok := p.classes.Load(n)
	if !ok {
		c, _ = p.classes.LoadOrStore(n, &sync.Pool{})
	}
	c.(*sync.Pool).Put(s)
}

var (
	htEntryPool  slicePool[entry]
	wmtEntryPool slicePool[wmtEntry]
)

// Release returns the table's backing array to the pool. The table is
// unusable afterwards.
func (h *HashTable) Release() {
	htEntryPool.put(h.entries)
	h.entries = nil
}

// Release returns the WMT's backing array to the pool. The table is
// unusable afterwards.
func (w *WMT) Release() {
	wmtEntryPool.put(w.entries)
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
