package core

import (
	"encoding/binary"
	"math/bits"

	"cable/internal/cache"
	"cable/internal/sig"
)

// candidate is one reference candidate surviving the hash-table probe
// and residency check. id is the position the hash table returned (in
// the home cache on the home end, in the remote cache on the remote
// end); remoteID is the RemoteLID the payload would carry.
type candidate struct {
	id       cache.LineID
	remoteID cache.LineID
	data     []byte
	cbv      uint32 // coverage bit vector: bit i = word i matches exactly
	dups     int    // how many signatures mapped to this line (pre-rank key)
}

// CoverageVector computes the CBV (§III-C): bit i set iff 32-bit word i
// of ref equals word i of data. For 64-byte lines this is the paper's
// 16-bit vector. The vector is 32 bits wide: a longer line (the codec
// takes lines up to 4096 bytes) is ranked by its first 32 words only, so
// words from 32 on are not compared at all.
func CoverageVector(data, ref []byte) uint32 {
	n := min(len(data)/sig.WordSize, 32)
	data, ref = data[:n*sig.WordSize], ref[:n*sig.WordSize]
	var cbv uint32
	i := 0
	// Two words per 64-bit XOR: a zero 32-bit lane is an exact word
	// match. Lane order matches the scalar form because little-endian
	// loads place word i in the low half and word i+1 in the high half.
	// A lane holds less than 2^32, so (lane-1)>>63 is 1 exactly when
	// the lane is zero: the bit is set without a branch on the data.
	for ; i+2 <= n; i += 2 {
		x := binary.LittleEndian.Uint64(data[i*sig.WordSize:]) ^
			binary.LittleEndian.Uint64(ref[i*sig.WordSize:])
		cbv |= uint32((x&0xFFFFFFFF-1)>>63)<<uint(i) | uint32((x>>32-1)>>63)<<uint(i+1)
	}
	if i < n && sig.Word(data, i*sig.WordSize) == sig.Word(ref, i*sig.WordSize) {
		cbv |= 1 << uint(i)
	}
	return cbv
}

// preRank orders candidates by duplication count (§III-C: LineIDs that
// several signatures map to are more likely similar) and truncates to
// accessCount — the number of data-array reads the search step spends.
// A hand-rolled stable insertion sort keeps the hot path allocation-
// free (sort.SliceStable boxes its closure); candidate lists are tiny
// (≤ MaxSearchSigs × BucketDepth entries).
func preRank(cands []candidate, accessCount int) []candidate {
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && cands[j].dups < c.dups {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
	if len(cands) > accessCount {
		cands = cands[:accessCount]
	}
	return cands
}

// maxRefBound is the reference-set enumeration depth. The payload's
// 2-bit refcount field bounds Config.MaxRefs to 3 (Validate enforces
// it), which is what lets selectRefs be three nested loops.
const maxRefBound = 3

// selectRefs picks the subset of at most maxRefs candidates maximizing
// combined CBV coverage, mirroring the paper's swap-capable greedy
// (its worked example drops an already-chosen line for a better pair).
// With at most six candidates exact enumeration is cheap and exactly
// "maximize coverage". Ties prefer fewer references (each costs a
// RemoteLID on the wire), then higher duplication counts, then the
// subset enumerated first. Candidates contributing no additional
// coverage are dropped. The selection is appended to out[:0]; with a
// reused out buffer it is allocation-free.
func selectRefs(cands []candidate, maxRefs int, out []candidate) []candidate {
	if maxRefs <= 0 || len(cands) == 0 {
		return out[:0]
	}
	// Subsets are visited in lexicographic pre-order — {a}, {a,b},
	// {a,b,c}, {a,b,c+1}, …, {a,b+1}, … — each level handing its OR-ed
	// CBV and dup sum to the next, so a subset costs one OR, one add and
	// one popcount. The order is the tie-break of last resort: it must
	// stay the recursive enumeration's (referenceSelect in the tests).
	bs := bestSet{cover: -1, dups: -1}
	for a := range cands {
		cbvA, dupsA := cands[a].cbv, cands[a].dups
		bs.offer(cbvA, 1, dupsA, a, 0, 0)
		if maxRefs < 2 {
			continue
		}
		for b := a + 1; b < len(cands); b++ {
			cbvB, dupsB := cbvA|cands[b].cbv, dupsA+cands[b].dups
			bs.offer(cbvB, 2, dupsB, a, b, 0)
			if maxRefs < 3 {
				continue
			}
			for c := b + 1; c < len(cands); c++ {
				bs.offer(cbvB|cands[c].cbv, 3, dupsB+cands[c].dups, a, b, c)
			}
		}
	}
	if bs.cover <= 0 {
		return out[:0] // no candidate matches even one word
	}
	best := bs.set[:bs.size]
	// Drop members that add nothing over the rest of the chosen set.
	out = out[:0]
	for k, i := range best {
		var others uint32
		for k2, j := range best {
			if k2 != k {
				others |= cands[j].cbv
			}
		}
		if cands[i].cbv&^others != 0 || len(best) == 1 {
			out = append(out, cands[i])
		}
	}
	if len(out) == 0 {
		out = append(out, cands[best[0]])
	}
	return out
}

// bestSet is the best subset selectRefs has visited so far.
type bestSet struct {
	cover, size, dups int
	set               [maxRefBound]int
}

// offer replaces the best subset by the one given (its first size
// indices count) when that covers more words, or as many with fewer
// members, or as many with as many members and more duplicates.
func (bs *bestSet) offer(cbv uint32, size, dups, a, b, c int) {
	cover := bits.OnesCount32(cbv)
	if cover > bs.cover ||
		cover == bs.cover && (size < bs.size || size == bs.size && dups > bs.dups) {
		*bs = bestSet{cover, size, dups, [maxRefBound]int{a, b, c}}
	}
}
