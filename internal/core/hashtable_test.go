package core

import (
	"testing"

	"cable/internal/cache"
	"cable/internal/sig"
)

func TestHashTableInsertLookupRemove(t *testing.T) {
	ht := NewHashTable(16, 2)
	s := sig.Signature(0x1234)
	a := cache.LineID{Index: 1, Way: 0}
	b := cache.LineID{Index: 2, Way: 3}
	ht.Insert(s, a)
	ht.Insert(s, b)
	got := ht.Lookup(s, nil)
	if len(got) != 2 {
		t.Fatalf("lookup returned %d ids, want 2", len(got))
	}
	if !ht.Remove(s, a) {
		t.Fatal("remove of present id failed")
	}
	if ht.Remove(s, a) {
		t.Fatal("second remove should fail")
	}
	got = ht.Lookup(s, nil)
	if len(got) != 1 || got[0] != b {
		t.Fatalf("after remove: %v", got)
	}
}

func TestHashTableDuplicateInsertIsNoop(t *testing.T) {
	ht := NewHashTable(8, 2)
	s := sig.Signature(7)
	id := cache.LineID{Index: 3, Way: 1}
	ht.Insert(s, id)
	ht.Insert(s, id)
	if got := ht.Lookup(s, nil); len(got) != 1 {
		t.Fatalf("duplicate insert created %d entries", len(got))
	}
}

func TestHashTableFIFODisplacement(t *testing.T) {
	ht := NewHashTable(4, 2)
	s := sig.Signature(0) // bucket 0
	ids := []cache.LineID{{Index: 0, Way: 0}, {Index: 1, Way: 0}, {Index: 2, Way: 0}}
	// Only the third insert finds the depth-2 bucket full.
	for i, id := range ids {
		if displaced := ht.Insert(s, id); displaced != (i == 2) {
			t.Fatalf("insert %d: displaced = %v", i, displaced)
		}
	}
	got := ht.Lookup(s, nil)
	if len(got) != 2 {
		t.Fatalf("bucket depth not enforced: %d", len(got))
	}
	// Oldest (ids[0]) must be gone; the two newest remain.
	for _, id := range got {
		if id == ids[0] {
			t.Fatal("FIFO should displace the oldest entry")
		}
	}
}

func TestHashTableSizeRounding(t *testing.T) {
	ht := NewHashTable(1000, 2)
	if ht.NumBuckets() != 1024 {
		t.Fatalf("buckets = %d, want 1024", ht.NumBuckets())
	}
	tiny := NewHashTable(0, 2)
	if tiny.NumBuckets() != 1 {
		t.Fatalf("min buckets = %d, want 1", tiny.NumBuckets())
	}
}

func TestHashTableDistinctBuckets(t *testing.T) {
	ht := NewHashTable(256, 2)
	a, b := sig.Signature(1), sig.Signature(2)
	ht.Insert(a, cache.LineID{Index: 10, Way: 0})
	if got := ht.Lookup(b, nil); len(got) != 0 {
		t.Fatalf("different signature found entries: %v", got)
	}
}

func TestHashTableSizeBits(t *testing.T) {
	// §IV-D: a full-sized table for a 16MB cache with 18-bit HomeLIDs
	// is ~3.5% of the data cache.
	lines := 16 << 20 / 64
	ht := NewHashTable(lines/2, 2) // entries = lines at depth 2
	frac := float64(ht.SizeBits(18)) / float64(16<<20*8)
	if frac < 0.03 || frac > 0.04 {
		t.Fatalf("full-sized hash table overhead %.4f, want ≈0.035", frac)
	}
}

// TestHashTableEntryPacking pins the packed slot: every LineID up to the
// stated limits comes back from a lookup as it went in (slot zero, whose
// packed form must not read as empty, included), and one past a limit
// panics instead of aliasing another line.
func TestHashTableEntryPacking(t *testing.T) {
	const maxIndex = 1<<24 - 2
	s := sig.Signature(5)
	for _, id := range []cache.LineID{{Index: 0, Way: 0}, {Index: 0, Way: 255}, {Index: maxIndex, Way: 0}, {Index: maxIndex, Way: 255}, {Index: 1 << 17, Way: 15}} {
		ht := NewHashTable(8, 2)
		ht.Insert(s, id)
		if got := ht.Lookup(s, nil); len(got) != 1 || got[0] != id {
			t.Fatalf("inserted %+v, lookup returned %+v", id, got)
		}
		if ht.Occupancy() != 1 || !ht.Remove(s, id) || ht.Occupancy() != 0 {
			t.Fatalf("%+v: occupancy/remove disagree with the insert", id)
		}
	}
	for _, id := range []cache.LineID{{Index: maxIndex + 1, Way: 0}, {Index: 0, Way: 256}, {Index: -1, Way: 0}, {Index: 0, Way: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("insert of %+v did not panic", id)
				}
			}()
			NewHashTable(8, 2).Insert(s, id)
		}()
	}
}
