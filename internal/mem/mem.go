// Package mem is the lazily-materialized backing store behind the
// simulated memory hierarchy: line contents are generated on first
// touch by the owning workload's content function and mutated by
// write-backs thereafter.
package mem

import "fmt"

// Store maps line addresses to 64-byte contents.
type Store struct {
	lineSize int
	data     map[uint64][]byte
	fill     func(lineAddr uint64) []byte

	// arena is bump-allocated backing for materialized lines: fill's
	// return may alias caller-owned scratch (a workload generator hands
	// out the same buffer on every call), so the store copies — in
	// chunks, to keep the copy off the allocation profile. This is the
	// only place a materialized line is kept.
	arena []byte

	// Reads/Writes count backing-store traffic (≈ DRAM accesses).
	Reads  uint64
	Writes uint64
}

// arenaChunkLines is how many lines one arena chunk holds.
const arenaChunkLines = 256

// alloc carves one line-sized buffer out of the arena.
func (s *Store) alloc() []byte {
	if len(s.arena) < s.lineSize {
		s.arena = make([]byte, arenaChunkLines*s.lineSize)
	}
	b := s.arena[:s.lineSize:s.lineSize]
	s.arena = s.arena[s.lineSize:]
	return b
}

// NewStore builds a store; fill materializes cold lines and must return
// exactly lineSize bytes.
func NewStore(lineSize int, fill func(lineAddr uint64) []byte) *Store {
	return &Store{lineSize: lineSize, data: make(map[uint64][]byte), fill: fill}
}

// Read returns the contents of lineAddr, materializing it if cold. The
// returned slice is owned by the store; callers must copy before
// mutating.
func (s *Store) Read(lineAddr uint64) []byte {
	s.Reads++
	if d, ok := s.data[lineAddr]; ok {
		return d
	}
	d := s.fill(lineAddr)
	if len(d) != s.lineSize {
		panic(fmt.Sprintf("mem: fill returned %dB for line %#x, want %dB", len(d), lineAddr, s.lineSize))
	}
	cp := s.alloc()
	copy(cp, d)
	s.data[lineAddr] = cp
	return cp
}

// Write replaces the contents of lineAddr (a write-back reaching
// memory). The data is copied.
func (s *Store) Write(lineAddr uint64, data []byte) {
	if len(data) != s.lineSize {
		panic(fmt.Sprintf("mem: write of %dB to line %#x, want %dB", len(data), lineAddr, s.lineSize))
	}
	s.Writes++
	if d, ok := s.data[lineAddr]; ok {
		copy(d, data)
		return
	}
	cp := s.alloc()
	copy(cp, data)
	s.data[lineAddr] = cp
}

// Lines returns how many lines have been materialized.
func (s *Store) Lines() int { return len(s.data) }
