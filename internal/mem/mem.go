// Package mem is the lazily-materialized backing store behind the
// simulated memory hierarchy: line contents are generated on first
// touch by the owning workload's content function and mutated by
// write-backs thereafter.
package mem

import (
	"fmt"

	"cable/internal/pool"
)

// Store maps line addresses to their contents. Every materialized line
// owns one slot: slot i is bytes [i%arenaChunkLines × lineSize, +lineSize)
// of chunk i/arenaChunkLines, and the slot map takes a line address to
// its slot index. Slots are handed out in order and never freed, so a
// store's lines are its slot count. The map holds no pointers, which
// halves its bytes a slot against a map of slices and keeps it off the
// collector's scan.
//
// A store is one cell's, and the cell's owner hands it back with
// Release: the next store of its line size takes its chunk list and
// fills those chunks again before it allocates one. A released list
// keeps only the chunks its last store filled, so what the pool holds
// follows the last cell's size, not the largest one's. Every slot is
// fully overwritten — by the fill function's bytes or a write-back —
// before it is handed out, so no line of a previous owner can show.
type Store struct {
	lineSize int
	fill     func(lineAddr uint64) []byte
	slots    map[uint64]uint32 // nil once the store is released
	// chunks back the slots; fill's return may alias caller-owned
	// scratch (a workload generator hands out the same buffer on every
	// call), so the store copies — into chunks, to keep the copy off
	// the allocation profile. Past its length, the slice's capacity may
	// hold chunks a released store filled, which slot takes first.
	chunks [][]byte

	// Reads/Writes count backing-store traffic (≈ DRAM accesses).
	Reads  uint64
	Writes uint64
}

// arenaChunkLines is how many lines one chunk holds.
const arenaChunkLines = 256

// chunkLists holds released stores' chunk lists, keyed by line size.
var chunkLists pool.Keyed[int, [][]byte]

// NewStore builds a store; fill materializes cold lines and must return
// exactly lineSize bytes.
func NewStore(lineSize int, fill func(lineAddr uint64) []byte) *Store {
	chunks, _ := chunkLists.Get(lineSize)
	return &Store{lineSize: lineSize, fill: fill, slots: make(map[uint64]uint32), chunks: chunks}
}

// Release hands the chunks the store filled to the next store of its
// line size. Only an owner that can prove nothing retains the store or
// a line it returned may call it; the store is unusable afterwards.
func (s *Store) Release() {
	if s.slots == nil {
		return
	}
	clear(s.chunks[len(s.chunks):cap(s.chunks)])
	chunkLists.Put(s.lineSize, s.chunks[:0])
	s.slots, s.chunks, s.fill = nil, nil, nil
}

// slot returns slot i's bytes, taking one more chunk when i is the
// first slot past the store's chunks: a released store's, or a new one.
func (s *Store) slot(i uint32) []byte {
	c, off := int(i/arenaChunkLines), int(i%arenaChunkLines)*s.lineSize
	if c == len(s.chunks) {
		if c < cap(s.chunks) && s.chunks[:c+1][c] != nil {
			s.chunks = s.chunks[:c+1]
		} else {
			s.chunks = append(s.chunks, make([]byte, arenaChunkLines*s.lineSize))
		}
	}
	return s.chunks[c][off : off+s.lineSize : off+s.lineSize]
}

// put copies data into a new slot for lineAddr and returns the slot.
func (s *Store) put(lineAddr uint64, data []byte) []byte {
	i := uint32(len(s.slots))
	cp := s.slot(i)
	copy(cp, data)
	s.slots[lineAddr] = i
	return cp
}

// Read returns the contents of lineAddr, materializing it if cold. The
// returned slice is owned by the store; callers must copy before
// mutating.
func (s *Store) Read(lineAddr uint64) []byte {
	s.Reads++
	if i, ok := s.slots[lineAddr]; ok {
		return s.slot(i)
	}
	d := s.fill(lineAddr)
	if len(d) != s.lineSize {
		panic(fmt.Sprintf("mem: fill returned %dB for line %#x, want %dB", len(d), lineAddr, s.lineSize))
	}
	return s.put(lineAddr, d)
}

// Write replaces the contents of lineAddr (a write-back reaching
// memory). The data is copied.
func (s *Store) Write(lineAddr uint64, data []byte) {
	if len(data) != s.lineSize {
		panic(fmt.Sprintf("mem: write of %dB to line %#x, want %dB", len(data), lineAddr, s.lineSize))
	}
	s.Writes++
	if i, ok := s.slots[lineAddr]; ok {
		copy(s.slot(i), data)
		return
	}
	s.put(lineAddr, data)
}

// Lines returns how many lines have been materialized.
func (s *Store) Lines() int { return len(s.slots) }
