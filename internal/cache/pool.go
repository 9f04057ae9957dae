package cache

import "cable/internal/pool"

// A cache's line array plus its data arena is by far the largest
// allocation a simulation cell makes (MBs at paper geometries), and
// parallel cells build and drop caches constantly. backing bundles the
// two so Release can recycle them together; New draws from the pool
// keyed by geometry.
type backing struct {
	lines []Line
	sets  [][]Line
	// data is the contiguous arena the slots' Data buffers point into:
	// line i owns data[i*lineSize : (i+1)*lineSize], handed out as a
	// zero-length slice capped at the line size so InsertAt's capacity
	// check reuses it forever without allocating.
	data []byte
}

type backingKey struct {
	lines    int // total line count
	ways     int
	lineSize int
}

var backingPools pool.Keyed[backingKey, *backing]

// getBacking returns a reset backing for the geometry: every Line is
// zeroed with its Data pointed at its arena slot. Arena bytes are not
// zeroed — a slot's data is fully overwritten before its length grows.
func getBacking(sets, ways, lineSize int) *backing {
	total := sets * ways
	key := backingKey{lines: total, ways: ways, lineSize: lineSize}
	b, ok := backingPools.Get(key)
	if !ok {
		b = &backing{
			lines: make([]Line, total),
			sets:  make([][]Line, sets),
			data:  make([]byte, total*lineSize),
		}
		for i := range b.sets {
			b.sets[i] = b.lines[i*ways : (i+1)*ways : (i+1)*ways]
		}
	}
	for i := range b.lines {
		b.lines[i] = Line{Data: b.data[i*lineSize : i*lineSize : (i+1)*lineSize]}
	}
	return b
}

func putBacking(b *backing, lineSize int) {
	if b == nil || len(b.lines) == 0 {
		return
	}
	backingPools.Put(backingKey{lines: len(b.lines), ways: len(b.lines) / len(b.sets), lineSize: lineSize}, b)
}

// Release returns the cache's line backing to the geometry pool. The
// cache is unusable afterwards; callers must guarantee nothing retains
// pointers into it (Line pointers, Data slices, the sets views).
func (c *Cache) Release() {
	if c.backing == nil {
		return
	}
	putBacking(c.backing, c.cfg.LineSize)
	c.backing = nil
	c.sets = nil
}
