package core

import (
	"fmt"

	"cable/internal/cache"
)

// WayMap abstracts the way-map table so several links can share one
// pooled structure. The per-link WMT is the baseline implementation;
// SuperWMT provides the §IV-D extension for large systems: "WMT
// information can be pooled into a single, competitively shared
// super-WMT managed like a cache to decrease storage overheads".
type WayMap interface {
	// Lookup translates a HomeLID to a RemoteLID, proving residency.
	Lookup(homeID cache.LineID) (cache.LineID, bool)
	// Reverse translates a RemoteLID back to the tracked HomeLID.
	Reverse(remoteID cache.LineID) (cache.LineID, bool)
	// Set records residency, returning any displaced HomeLID.
	Set(remoteID, homeID cache.LineID) (cache.LineID, bool)
	// Clear invalidates a remote slot.
	Clear(remoteID cache.LineID) (cache.LineID, bool)
	// ClearHome invalidates by home line.
	ClearHome(homeID cache.LineID) (cache.LineID, bool)
	// ForEach visits valid entries.
	ForEach(fn func(remoteID, homeID cache.LineID))
	// Occupancy counts valid entries.
	Occupancy() int
}

var (
	_ WayMap = (*WMT)(nil)
	_ WayMap = (*superView)(nil)
)

// SuperWMT is a capacity-bounded, set-associative pool of way-map
// entries shared by every link of a chip. Unlike the per-link WMT —
// which mirrors the remote cache exactly and never misses for tracked
// lines — the super-WMT is managed like a cache: under contention it
// evicts entries (LRU), after which the affected line simply stops
// serving as a reference. Fill compression degrades gracefully;
// write-back compression must be disabled (the remote side cannot
// observe pool evictions), mirroring the §IV-C fallback.
type SuperWMT struct {
	sets      int
	ways      int
	remoteIdx int // remote index bits
	entries   [][]superEntry
	tick      uint64

	// Evictions counts valid entries displaced under contention.
	Evictions uint64
}

type superEntry struct {
	peer      int
	rIdx, rWy int
	alias     uint64
	homeWay   int
	lru       uint64
	valid     bool
}

// NewSuperWMT builds a pool with roughly capacity entries organized
// ways-wide. home/remote provide the geometry shared by all peers and
// must pass CheckPair.
func NewSuperWMT(capacity, ways int, home, remote *cache.Cache) (*SuperWMT, error) {
	if err := CheckPair(home.Config(), remote.Config()); err != nil {
		return nil, err
	}
	if ways < 1 {
		return nil, fmt.Errorf("core: super-WMT needs ≥1 way, got %d", ways)
	}
	if capacity < ways {
		capacity = ways
	}
	sets := 1
	for sets*ways < capacity {
		sets <<= 1
	}
	s := &SuperWMT{
		sets:      sets,
		ways:      ways,
		remoteIdx: remote.IndexBits(),
	}
	s.entries = make([][]superEntry, sets)
	for i := range s.entries {
		s.entries[i] = make([]superEntry, ways)
	}
	return s, nil
}

// Capacity returns the pool's entry capacity.
func (s *SuperWMT) Capacity() int { return s.sets * s.ways }

func (s *SuperWMT) setIndex(peer, rIdx int) int {
	x := uint64(peer)<<32 | uint64(uint32(rIdx))
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int(x) & (s.sets - 1)
}

// View returns the per-link WayMap facade for one peer.
func (s *SuperWMT) View(peer int) WayMap { return &superView{pool: s, peer: peer} }

type superView struct {
	pool *SuperWMT
	peer int
}

func (v *superView) split(homeID cache.LineID) (rIdx int, alias uint64) {
	mask := 1<<uint(v.pool.remoteIdx) - 1
	return homeID.Index & mask, uint64(homeID.Index) >> uint(v.pool.remoteIdx)
}

func (v *superView) homeLID(e *superEntry) cache.LineID {
	return cache.LineID{Index: int(e.alias)<<uint(v.pool.remoteIdx) | e.rIdx, Way: e.homeWay}
}

// Lookup implements WayMap.
func (v *superView) Lookup(homeID cache.LineID) (cache.LineID, bool) {
	p := v.pool
	rIdx, alias := v.split(homeID)
	set := p.entries[p.setIndex(v.peer, rIdx)]
	for i := range set {
		e := &set[i]
		if e.valid && e.peer == v.peer && e.rIdx == rIdx && e.alias == alias && e.homeWay == homeID.Way {
			p.tick++
			e.lru = p.tick
			return cache.LineID{Index: e.rIdx, Way: e.rWy}, true
		}
	}
	return cache.LineID{}, false
}

// Reverse implements WayMap.
func (v *superView) Reverse(remoteID cache.LineID) (cache.LineID, bool) {
	p := v.pool
	set := p.entries[p.setIndex(v.peer, remoteID.Index)]
	for i := range set {
		e := &set[i]
		if e.valid && e.peer == v.peer && e.rIdx == remoteID.Index && e.rWy == remoteID.Way {
			return v.homeLID(e), true
		}
	}
	return cache.LineID{}, false
}

// Set implements WayMap. An existing entry for the same remote slot is
// overwritten (its previous HomeLID returned as displaced); otherwise
// the LRU entry of the set is evicted if needed.
func (v *superView) Set(remoteID, homeID cache.LineID) (cache.LineID, bool) {
	p := v.pool
	rIdx, alias := v.split(homeID)
	if rIdx != remoteID.Index {
		panic(fmt.Sprintf("core: super-WMT set index mismatch: home %v vs slot %v", homeID, remoteID))
	}
	set := p.entries[p.setIndex(v.peer, remoteID.Index)]
	var victim *superEntry
	var oldest uint64 = ^uint64(0)
	for i := range set {
		e := &set[i]
		if e.valid && e.peer == v.peer && e.rIdx == remoteID.Index && e.rWy == remoteID.Way {
			displaced := v.homeLID(e)
			p.tick++
			*e = superEntry{peer: v.peer, rIdx: remoteID.Index, rWy: remoteID.Way,
				alias: alias, homeWay: homeID.Way, lru: p.tick, valid: true}
			return displaced, true
		}
		if !e.valid {
			victim = e
			oldest = 0
		} else if e.lru < oldest {
			victim, oldest = e, e.lru
		}
	}
	if victim.valid {
		p.Evictions++
	}
	p.tick++
	*victim = superEntry{peer: v.peer, rIdx: remoteID.Index, rWy: remoteID.Way,
		alias: alias, homeWay: homeID.Way, lru: p.tick, valid: true}
	return cache.LineID{}, false
}

// Clear implements WayMap.
func (v *superView) Clear(remoteID cache.LineID) (cache.LineID, bool) {
	p := v.pool
	set := p.entries[p.setIndex(v.peer, remoteID.Index)]
	for i := range set {
		e := &set[i]
		if e.valid && e.peer == v.peer && e.rIdx == remoteID.Index && e.rWy == remoteID.Way {
			homeID := v.homeLID(e)
			*e = superEntry{}
			return homeID, true
		}
	}
	return cache.LineID{}, false
}

// ClearHome implements WayMap.
func (v *superView) ClearHome(homeID cache.LineID) (cache.LineID, bool) {
	p := v.pool
	rIdx, alias := v.split(homeID)
	set := p.entries[p.setIndex(v.peer, rIdx)]
	for i := range set {
		e := &set[i]
		if e.valid && e.peer == v.peer && e.rIdx == rIdx && e.alias == alias && e.homeWay == homeID.Way {
			rid := cache.LineID{Index: e.rIdx, Way: e.rWy}
			*e = superEntry{}
			return rid, true
		}
	}
	return cache.LineID{}, false
}

// ForEach implements WayMap (this peer's entries only).
func (v *superView) ForEach(fn func(remoteID, homeID cache.LineID)) {
	for _, set := range v.pool.entries {
		for i := range set {
			e := &set[i]
			if e.valid && e.peer == v.peer {
				fn(cache.LineID{Index: e.rIdx, Way: e.rWy}, v.homeLID(e))
			}
		}
	}
}

// Occupancy implements WayMap (this peer's entries only).
func (v *superView) Occupancy() int {
	n := 0
	v.ForEach(func(cache.LineID, cache.LineID) { n++ })
	return n
}
