// Package cache models the set-associative, coherent caches between
// which CABLE compresses traffic: the on-chip LLC, the off-chip L4
// (DRAM buffer), and per-node LLCs in a multi-chip system. The model is
// functional (contents + states + LRU), with precise eviction and
// way-replacement information — the inputs CABLE's synchronization
// depends on (§III-F).
package cache

import (
	"fmt"
	"math/bits"
)

// State is a cache-coherence state. CABLE only uses lines in Shared
// state as dictionary references: Modified lines can change silently and
// would corrupt decompression (§II-A).
type State uint8

// Coherence states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// LineID identifies a cache line by physical position — index + way —
// the compact pointer representation CABLE transmits instead of tags
// (§III-D). A LineID is only meaningful relative to a specific cache
// geometry.
type LineID struct {
	Index int
	Way   int
}

// Line is one cache entry.
type Line struct {
	Tag   uint64 // line address / number of sets
	State State
	Data  []byte
	lru   uint64
	valid bool
}

// Policy selects the replacement policy. CABLE is decoupled from the
// policy (§II-C): it tracks evictions precisely via the per-request
// way-replacement info, whatever chose the way.
type Policy uint8

// Replacement policies.
const (
	// PolicyLRU is least-recently-used (the default).
	PolicyLRU Policy = iota
	// PolicyFIFO evicts the oldest insertion regardless of reuse.
	PolicyFIFO
	// PolicyRandom picks a pseudo-random way (deterministic xorshift,
	// seeded per cache, so runs stay reproducible).
	PolicyRandom
)

// Config describes a cache geometry.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineSize  int
	// Policy defaults to PolicyLRU.
	Policy Policy
}

// Validate checks the geometry is a usable power-of-two layout.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.SizeBytes%(c.Ways*c.LineSize) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line %d", c.Name, c.SizeBytes, c.Ways*c.LineSize)
	}
	sets := c.SizeBytes / (c.Ways * c.LineSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// DataReads counts data-array reads done on behalf of CABLE's
	// search/decompress (reference fetches), for the energy model.
	DataReads uint64
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg     Config
	sets    [][]Line
	backing *backing
	tick    uint64
	rng     uint64 // xorshift state for PolicyRandom

	// Stats accumulates event counts; callers may reset it.
	Stats Stats
}

// rngSeed is the initial xorshift state for PolicyRandom; Reset rewinds
// to it so a reused cache replays the same way choices as a fresh one.
const rngSeed = 0x9E3779B97F4A7C15

// New builds a cache; it panics on invalid geometry (a configuration
// bug, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumSets()
	// One contiguous backing array for all lines (sets are views into
	// it) plus one contiguous data arena, both drawn from the geometry
	// pool — see pool.go. This collapses the per-set and per-line
	// allocations of large caches into recycled slabs.
	b := getBacking(n, cfg.Ways, cfg.LineSize)
	return &Cache{cfg: cfg, sets: b.sets, backing: b, rng: rngSeed}
}

// Reset invalidates every line and rewinds replacement state and stats
// to a fresh cache's, keeping the backing arrays (and each slot's data
// buffer) for reuse. Callers cannot distinguish a Reset cache from a
// newly built one of the same geometry.
func (c *Cache) Reset() {
	for idx := range c.sets {
		for w := range c.sets[idx] {
			l := &c.sets[idx][w]
			*l = Line{Data: l.Data[:0]}
		}
	}
	c.tick = 0
	c.rng = rngSeed
	c.Stats = Stats{}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c Config) NumSets() int { return c.SizeBytes / (c.Ways * c.LineSize) }

// NumLines returns the total line capacity.
func (c Config) NumLines() int { return c.SizeBytes / c.LineSize }

// IndexBits returns the number of set-index bits.
func (c Config) IndexBits() int { return bits.Len(uint(c.NumSets())) - 1 }

// WayBits returns the number of way bits.
func (c Config) WayBits() int {
	b := bits.Len(uint(c.Ways)) - 1
	if 1<<uint(b) < c.Ways {
		b++
	}
	return b
}

// LineIDBits is the transmitted width of a LineID for this geometry —
// 17 bits for the paper's 8-way 8 MB LLC (Table III).
func (c Config) LineIDBits() int { return c.IndexBits() + c.WayBits() }

// NumSets, NumLines, IndexBits, WayBits and LineIDBits of a built cache
// are its Config's, read off the arrays where that is cheaper.
func (c *Cache) NumSets() int    { return len(c.sets) }
func (c *Cache) NumLines() int   { return len(c.sets) * c.cfg.Ways }
func (c *Cache) IndexBits() int  { return bits.Len(uint(len(c.sets))) - 1 }
func (c *Cache) WayBits() int    { return c.cfg.WayBits() }
func (c *Cache) LineIDBits() int { return c.IndexBits() + c.WayBits() }

// IndexOf maps a line address to its set index.
func (c *Cache) IndexOf(lineAddr uint64) int {
	return int(lineAddr & uint64(len(c.sets)-1))
}

// TagOf maps a line address to its tag.
func (c *Cache) TagOf(lineAddr uint64) uint64 {
	return lineAddr >> uint(c.IndexBits())
}

// AddrOf reconstructs a line address from tag and index.
func (c *Cache) AddrOf(tag uint64, index int) uint64 {
	return tag<<uint(c.IndexBits()) | uint64(index)
}

// Probe looks up a line without touching LRU state or stats.
func (c *Cache) Probe(lineAddr uint64) (*Line, LineID, bool) {
	idx := c.IndexOf(lineAddr)
	tag := c.TagOf(lineAddr)
	for w := range c.sets[idx] {
		l := &c.sets[idx][w]
		if l.valid && l.Tag == tag {
			return l, LineID{Index: idx, Way: w}, true
		}
	}
	return nil, LineID{}, false
}

// Access looks up a line, updating LRU and hit/miss stats.
func (c *Cache) Access(lineAddr uint64) (*Line, LineID, bool) {
	c.Stats.Accesses++
	l, id, ok := c.Probe(lineAddr)
	if ok {
		if c.cfg.Policy == PolicyLRU {
			c.tick++
			l.lru = c.tick
		}
		c.Stats.Hits++
		return l, id, true
	}
	c.Stats.Misses++
	return nil, LineID{}, false
}

// VictimWay returns the way that an insertion into idx would replace —
// the way-replacement info that remote caches embed in requests so the
// home cache can track displacements (§II-C). Invalid ways win first.
// VictimWay is idempotent between insertions so a request's embedded
// way info always matches where the fill lands, under every policy.
func (c *Cache) VictimWay(idx int) int {
	victim, oldest := 0, ^uint64(0)
	for w := range c.sets[idx] {
		l := &c.sets[idx][w]
		if !l.valid {
			return w
		}
		if l.lru < oldest {
			oldest, victim = l.lru, w
		}
	}
	if c.cfg.Policy == PolicyRandom {
		// Hash the deterministic state with the set index so the
		// choice is stable until the next insertion into this set.
		x := c.rng ^ uint64(idx)*0x9E3779B97F4A7C15
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(c.cfg.Ways))
	}
	return victim
}

// Victim returns the way a fill of lineAddr would replace and, when that
// way is occupied, the line it holds.
func (c *Cache) Victim(lineAddr uint64) (way int, victim uint64, occupied bool) {
	idx := c.IndexOf(lineAddr)
	way = c.VictimWay(idx)
	victim, occupied = c.LineAddrOf(LineID{Index: idx, Way: way})
	return way, victim, occupied
}

// Eviction describes a line taken out of the cache by Invalidate. Data
// aliases the buffer the slot keeps: it is valid until that slot's next
// install, and a caller that needs the bytes longer copies them (the
// eviction buffer does, on Add).
type Eviction struct {
	LineAddr uint64
	State    State
	Data     []byte
	ID       LineID
}

// InsertAt installs a line at an explicit way, copying data into the
// slot's reused buffer. A previous occupant counts in Stats.Evictions
// but is not copied out: a caller that needs the victim takes it first,
// with Victim and Invalidate.
func (c *Cache) InsertAt(lineAddr uint64, data []byte, st State, way int) {
	if len(data) != c.cfg.LineSize {
		panic(fmt.Sprintf("cache %q: insert of %dB line, want %dB", c.cfg.Name, len(data), c.cfg.LineSize))
	}
	l := &c.sets[c.IndexOf(lineAddr)][way]
	if l.valid {
		c.Stats.Evictions++
	}
	c.tick++
	c.rng += 0x2545F4914F6CDD1D // advance PolicyRandom state per insertion
	buf := l.Data
	if cap(buf) >= c.cfg.LineSize {
		buf = buf[:c.cfg.LineSize]
	} else {
		buf = make([]byte, c.cfg.LineSize)
	}
	copy(buf, data)
	*l = Line{Tag: c.TagOf(lineAddr), State: st, Data: buf, lru: c.tick, valid: true}
}

// OverwriteAt is InsertAt, kept only because the frozen benchmark/ calls it.
func (c *Cache) OverwriteAt(lineAddr uint64, data []byte, st State, way int) {
	c.InsertAt(lineAddr, data, st, way)
}

// Insert installs a line at the policy's victim way.
func (c *Cache) Insert(lineAddr uint64, data []byte, st State) {
	c.InsertAt(lineAddr, data, st, c.VictimWay(c.IndexOf(lineAddr)))
}

// Invalidate removes a line if present and returns it. The Eviction's
// Data is the slot's own buffer, not a copy: valid until the slot's next
// InsertAt overwrites it.
func (c *Cache) Invalidate(lineAddr uint64) (Eviction, bool) {
	l, id, ok := c.Probe(lineAddr)
	if !ok {
		return Eviction{}, false
	}
	ev := Eviction{LineAddr: lineAddr, State: l.State, Data: l.Data, ID: id}
	*l = Line{Data: l.Data[:0]} // the slot keeps its buffer for the next install
	return ev, true
}

// ReadByID reads the data array directly by position, without a tag
// check — the cheap access CABLE's search step uses for reference
// candidates (§III-C). It returns nil for an invalid entry.
func (c *Cache) ReadByID(id LineID) *Line {
	if id.Index < 0 || id.Index >= len(c.sets) || id.Way < 0 || id.Way >= c.cfg.Ways {
		return nil
	}
	c.Stats.DataReads++
	l := &c.sets[id.Index][id.Way]
	if !l.valid {
		return nil
	}
	return l
}

// LineAddrOf returns the line address stored at id, if valid.
func (c *Cache) LineAddrOf(id LineID) (uint64, bool) {
	if id.Index < 0 || id.Index >= len(c.sets) || id.Way < 0 || id.Way >= c.cfg.Ways {
		return 0, false
	}
	l := &c.sets[id.Index][id.Way]
	if !l.valid {
		return 0, false
	}
	return c.AddrOf(l.Tag, id.Index), true
}

// ForEach visits every valid line.
func (c *Cache) ForEach(fn func(lineAddr uint64, id LineID, l *Line)) {
	for idx := range c.sets {
		for w := range c.sets[idx] {
			l := &c.sets[idx][w]
			if l.valid {
				fn(c.AddrOf(l.Tag, idx), LineID{Index: idx, Way: w}, l)
			}
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	c.ForEach(func(uint64, LineID, *Line) { n++ })
	return n
}
