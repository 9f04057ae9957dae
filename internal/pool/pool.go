// Package pool recycles the large structures every simulation cell
// builds and drops: cache line backings, CABLE-end tables, backing
// stores and the gzip meter's windows. Parallel cells make short-lived
// copies of the same few sizes, so a released structure goes into a
// sync.Pool segregated by its size and the next cell of that size takes
// it instead of allocating.
//
// Release is opt-in: an owner releases a structure only when nothing
// can reach it any more, and the structure drops its own reference so
// that accidental reuse fails fast instead of corrupting a pooled one.
package pool

import "sync"

// Keyed is a family of sync.Pools, one per key. A sync.Pool empties
// over two GC cycles, so a Get can miss after a collection even when
// the key was released before.
type Keyed[K comparable, T any] struct {
	classes sync.Map // K -> *sync.Pool of T
}

// Get returns a value released under k, if the pool still holds one.
func (p *Keyed[K, T]) Get(k K) (v T, ok bool) {
	if c, found := p.classes.Load(k); found {
		if x := c.(*sync.Pool).Get(); x != nil {
			return x.(T), true
		}
	}
	return v, false
}

// Put releases v under k.
func (p *Keyed[K, T]) Put(k K, v T) {
	c, ok := p.classes.Load(k)
	if !ok {
		c, _ = p.classes.LoadOrStore(k, &sync.Pool{})
	}
	c.(*sync.Pool).Put(v)
}

// Slices hands out zeroed slices of one element type, segregated by
// exact length. Misses allocate; Put zeroes eagerly so Get never hands
// back stale entries.
type Slices[T any] struct {
	Keyed[int, []T]
}

// Get returns a zeroed slice of length n (nil for n ≤ 0).
func (p *Slices[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	if s, ok := p.Keyed.Get(n); ok {
		return s
	}
	return make([]T, n)
}

// Put zeroes s and releases it for the next Get of its length.
func (p *Slices[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	clear(s)
	p.Keyed.Put(len(s), s)
}
