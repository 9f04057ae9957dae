package sim

import "cable/internal/cache"

// The per-core private levels of Table IV: a 32 KB 4-way single-cycle
// L1 and a 128 KB 8-way 4-cycle L2.
const (
	l1Bytes, l1Ways, l1Cycles = 32 << 10, 4, 1
	l2Bytes, l2Ways, l2Cycles = 128 << 10, 8, 4
)

// privateHier is one thread's private L1/L2 filter in the timing
// simulator. It tracks residency only — line data lives in the shared
// hierarchy — and models write-through private caches: stores always
// reach the LLC (keeping CABLE's upgrade/synchronization exact), while
// read hits are absorbed at L1/L2 cost.
type privateHier struct {
	l1, l2 *cache.Cache
	filler []byte

	// Stats for the Table V energy model.
	L1Accesses uint64
	L2Accesses uint64
}

// newPrivateHier builds the private levels at the Table IV ways with
// the given capacities (the timing simulator passes l1Bytes, l2Bytes).
func newPrivateHier(l1Size, l2Size int) *privateHier {
	return &privateHier{
		l1:     cache.New(cache.Config{Name: "l1", SizeBytes: l1Size, Ways: l1Ways, LineSize: lineSize}),
		l2:     cache.New(cache.Config{Name: "l2", SizeBytes: l2Size, Ways: l2Ways, LineSize: lineSize}),
		filler: make([]byte, lineSize),
	}
}

// release recycles the private levels' line backings (the hierarchy is
// per-thread and per-run, so the timing simulator releases it on exit).
func (p *privateHier) release() {
	p.l1.Release()
	p.l2.Release()
	p.l1, p.l2 = nil, nil
}

// lookup probes L1 then L2, installing on hit promotion. It returns
// which level hit (1, 2) or 0 for a miss; misses are installed in both
// levels (allocate on fill).
func (p *privateHier) lookup(lineAddr uint64) int {
	p.L1Accesses++
	if _, _, ok := p.l1.Access(lineAddr); ok {
		return 1
	}
	p.L2Accesses++
	if _, _, ok := p.l2.Access(lineAddr); ok {
		p.l1.Insert(lineAddr, p.filler, cache.Shared)
		return 2
	}
	p.l1.Insert(lineAddr, p.filler, cache.Shared)
	p.l2.Insert(lineAddr, p.filler, cache.Shared)
	return 0
}
