package core

import (
	"errors"
	"fmt"

	"cable/internal/cache"
)

// WMT is the Way-Map Table (§III-D): a home-cache structure that tracks
// which home lines are resident in the remote cache and *where*. Its
// layout mirrors the remote cache (remote sets × remote ways); each
// entry holds a normalized HomeLID — alias + home way, where "alias" is
// the home index bits left over after removing the remote index bits.
// A hit at (remoteIndex, way) both proves remote residency and yields
// the RemoteLID, cutting pointer size by more than half versus tags.
type WMT struct {
	sets      int
	ways      int
	remoteIdx int // remote index bits
	aliasBits int // home index bits − remote index bits
	// entries is the flat slot array: slot (set, way) lives at
	// entries[set*ways+way]. One pooled allocation instead of one per
	// set keeps cell startup off the allocator (see pool.go) and set
	// scans on contiguous cache lines.
	entries []wmtEntry
}

// wmtEntry packs one way-map slot into a single machine word — bit 63
// valid, bits 48..62 home way, bits 0..47 alias — so a set scan touches
// at most one cache line (8-way: 64 bytes, vs three lines for the
// previous three-field struct) and Lookup's three-field compare becomes
// a single word compare against a precomputed key. The zero value is an
// invalid slot, which keeps the pooled-backing contract (cleared slices
// come back all-invalid) for free.
type wmtEntry uint64

const (
	wmtValidBit  = wmtEntry(1) << 63
	wmtWayShift  = 48
	wmtAliasMask = wmtEntry(1)<<wmtWayShift - 1
)

// packWMT builds the slot word for a valid mapping. The packing is
// bijective over (alias < 2^48, way < 2^15) — NewWMT rejects geometries
// outside that — so equality of packed words is exactly equality of the
// (valid, alias, homeWay) triples.
func packWMT(alias uint64, homeWay int) wmtEntry {
	return wmtValidBit | wmtEntry(homeWay)<<wmtWayShift | wmtEntry(alias)
}

func (e wmtEntry) valid() bool   { return e&wmtValidBit != 0 }
func (e wmtEntry) alias() uint64 { return uint64(e & wmtAliasMask) }
func (e wmtEntry) homeWay() int  { return int(e>>wmtWayShift) & 0x7FFF }

// CheckPair validates a home/remote cache pair for one CABLE link: the
// home cache (the larger, inclusive one) has at least as many sets as
// the remote, both hold lines of one size, and the geometry fits the
// WMT's packed entry (alias < 2^48, home way < 2^15). Both geometries
// must already be valid (cache.Config.Validate). Every constructor that
// builds a link's ends or way-map returns its error, so a bad pair is an
// error before anything is built.
func CheckPair(home, remote cache.Config) error {
	var errs []error
	alias := home.IndexBits() - remote.IndexBits()
	if alias < 0 {
		errs = append(errs, fmt.Errorf("core: home cache %q has fewer sets (%d) than remote %q (%d)",
			home.Name, home.NumSets(), remote.Name, remote.NumSets()))
	}
	if home.LineSize != remote.LineSize {
		errs = append(errs, fmt.Errorf("core: home cache %q holds %dB lines, remote %q %dB",
			home.Name, home.LineSize, remote.Name, remote.LineSize))
	}
	if alias >= wmtWayShift || home.Ways > 0x7FFF {
		errs = append(errs, fmt.Errorf("core: WMT geometry overflows packed entry (alias bits %d, home ways %d)",
			alias, home.Ways))
	}
	return errors.Join(errs...)
}

// NewWMT builds a WMT for a home cache of geometry home tracking a
// remote cache of geometry remote; the pair must pass CheckPair.
func NewWMT(home, remote cache.Config) (*WMT, error) {
	if err := CheckPair(home, remote); err != nil {
		return nil, err
	}
	w := &WMT{
		sets:      remote.NumSets(),
		ways:      remote.Ways,
		remoteIdx: remote.IndexBits(),
		aliasBits: home.IndexBits() - remote.IndexBits(),
	}
	w.entries = wmtEntryPool.Get(w.sets * w.ways)
	return w, nil
}

// split decomposes a home LineID into (remoteIndex, alias).
func (w *WMT) split(homeID cache.LineID) (remoteIndex int, alias uint64) {
	return homeID.Index & (w.sets - 1), uint64(homeID.Index) >> uint(w.remoteIdx)
}

// Lookup translates a HomeLID to a RemoteLID (Fig 9). ok is false when
// the line is not guaranteed to exist in the remote cache.
func (w *WMT) Lookup(homeID cache.LineID) (cache.LineID, bool) {
	rIdx, alias := w.split(homeID)
	key := packWMT(alias, homeID.Way)
	set := w.entries[rIdx*w.ways : (rIdx+1)*w.ways]
	for way, e := range set {
		if e == key {
			return cache.LineID{Index: rIdx, Way: way}, true
		}
	}
	return cache.LineID{}, false
}

// Reverse translates a RemoteLID back to the HomeLID stored there —
// the write-back decompression path (§III-G). ok is false for an
// invalid slot.
func (w *WMT) Reverse(remoteID cache.LineID) (cache.LineID, bool) {
	if remoteID.Index < 0 || remoteID.Index >= w.sets || remoteID.Way < 0 || remoteID.Way >= w.ways {
		return cache.LineID{}, false
	}
	e := w.entries[remoteID.Index*w.ways+remoteID.Way]
	if !e.valid() {
		return cache.LineID{}, false
	}
	homeIdx := int(e.alias())<<uint(w.remoteIdx) | remoteID.Index
	return cache.LineID{Index: homeIdx, Way: e.homeWay()}, true
}

// Set records that the home line homeID is resident in the remote cache
// at remoteID. It returns the HomeLID previously tracked in that slot,
// if any — the displaced line whose signatures must be invalidated.
func (w *WMT) Set(remoteID cache.LineID, homeID cache.LineID) (displaced cache.LineID, wasValid bool) {
	rIdx, alias := w.split(homeID)
	if rIdx != remoteID.Index {
		panic(fmt.Sprintf("core: WMT set index mismatch: home %v maps to remote set %d, slot is %d",
			homeID, rIdx, remoteID.Index))
	}
	e := &w.entries[remoteID.Index*w.ways+remoteID.Way]
	if old := *e; old.valid() {
		displaced = cache.LineID{Index: int(old.alias())<<uint(w.remoteIdx) | remoteID.Index, Way: old.homeWay()}
		wasValid = true
	}
	*e = packWMT(alias, homeID.Way)
	return displaced, wasValid
}

// Clear invalidates the slot at remoteID, returning the HomeLID it
// tracked.
func (w *WMT) Clear(remoteID cache.LineID) (cache.LineID, bool) {
	if remoteID.Index < 0 || remoteID.Index >= w.sets || remoteID.Way < 0 || remoteID.Way >= w.ways {
		return cache.LineID{}, false
	}
	e := &w.entries[remoteID.Index*w.ways+remoteID.Way]
	if !e.valid() {
		return cache.LineID{}, false
	}
	homeID := cache.LineID{Index: int(e.alias())<<uint(w.remoteIdx) | remoteID.Index, Way: e.homeWay()}
	*e = 0
	return homeID, true
}

// ClearHome invalidates the slot tracking homeID, if any (used on home
// evictions and upgrades, where the event is keyed by the home line).
func (w *WMT) ClearHome(homeID cache.LineID) (cache.LineID, bool) {
	rID, ok := w.Lookup(homeID)
	if !ok {
		return cache.LineID{}, false
	}
	w.entries[rID.Index*w.ways+rID.Way] = 0
	return rID, true
}

// ForEach visits every valid entry as (remoteID, homeID).
func (w *WMT) ForEach(fn func(remoteID, homeID cache.LineID)) {
	for i, e := range w.entries {
		if e.valid() {
			fn(cache.LineID{Index: i / w.ways, Way: i % w.ways},
				cache.LineID{Index: int(e.alias())<<uint(w.remoteIdx) | i/w.ways, Way: e.homeWay()})
		}
	}
}

// Occupancy counts valid entries.
func (w *WMT) Occupancy() int {
	n := 0
	for _, e := range w.entries {
		if e.valid() {
			n++
		}
	}
	return n
}

// EntryBits is the per-entry storage cost: alias bits + home way bits +
// valid bit. For the paper's 8-way 8 MB LLC / 16-way 16 MB buffer this
// is 1 alias + 3(+1) way bits ≈ 4 bits (§IV-D).
func (w *WMT) EntryBits(homeWayBits int) int {
	return w.aliasBits + homeWayBits + 1
}

// SizeBits returns total WMT storage for the area model.
func (w *WMT) SizeBits(homeWayBits int) int {
	return w.sets * w.ways * w.EntryBits(homeWayBits)
}
