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
// 16-bit vector.
func CoverageVector(data, ref []byte) uint32 {
	var cbv uint32
	n := len(data) / sig.WordSize
	i := 0
	// Two words per 64-bit XOR: a zero 32-bit lane is an exact word
	// match. Lane order matches the scalar form because little-endian
	// loads place word i in the low half and word i+1 in the high half.
	for ; i+2 <= n; i += 2 {
		x := binary.LittleEndian.Uint64(data[i*sig.WordSize:]) ^
			binary.LittleEndian.Uint64(ref[i*sig.WordSize:])
		if x&0xFFFFFFFF == 0 {
			cbv |= 1 << uint(i)
		}
		if x>>32 == 0 {
			cbv |= 1 << uint(i+1)
		}
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

// maxRefBound caps the reference-set enumeration depth. The payload's
// 2-bit refcount field bounds Config.MaxRefs to 3 (Validate enforces
// it), so fixed arrays of this size make the picker allocation-free.
const maxRefBound = 3

// refPicker is the reusable scratch of the reference-selection step.
// Zero value is ready; one picker belongs to one link end.
type refPicker struct {
	best    [maxRefBound]int
	bestLen int
	chosen  [maxRefBound]int
}

// selectRefs picks the subset of at most maxRefs candidates maximizing
// combined CBV coverage, mirroring the paper's swap-capable greedy
// (its worked example drops an already-chosen line for a better pair).
// With at most six candidates exact enumeration is cheap and exactly
// "maximize coverage". Ties prefer fewer references (each costs a
// RemoteLID on the wire), then higher duplication counts. Candidates
// contributing no additional coverage are dropped.
func selectRefs(cands []candidate, maxRefs int) []candidate {
	var pk refPicker
	return pk.pick(cands, maxRefs, nil)
}

// pick appends the selected references to out and returns it; with a
// reused out buffer the whole selection is allocation-free.
func (pk *refPicker) pick(cands []candidate, maxRefs int, out []candidate) []candidate {
	if maxRefs <= 0 || len(cands) == 0 {
		return out[:0]
	}
	if maxRefs > maxRefBound {
		maxRefs = maxRefBound
	}
	bestCover, bestDups := -1, -1
	pk.bestLen = 0
	bestSize := 0
	// walk enumerates index subsets in lexicographic order (identical
	// to the recursive formulation, so tie-breaking is unchanged).
	var walk func(start, depth int)
	walk = func(start, depth int) {
		if depth > 0 {
			var cbv uint32
			dups := 0
			for _, i := range pk.chosen[:depth] {
				cbv |= cands[i].cbv
				dups += cands[i].dups
			}
			cover := bits.OnesCount32(cbv)
			better := cover > bestCover ||
				(cover == bestCover && depth < bestSize) ||
				(cover == bestCover && depth == bestSize && dups > bestDups)
			if better {
				bestCover, bestSize, bestDups = cover, depth, dups
				pk.bestLen = copy(pk.best[:], pk.chosen[:depth])
			}
		}
		if depth == maxRefs {
			return
		}
		for i := start; i < len(cands); i++ {
			pk.chosen[depth] = i
			walk(i+1, depth+1)
		}
	}
	walk(0, 0)
	if bestCover <= 0 {
		return out[:0] // no candidate matches even one word
	}
	best := pk.best[:pk.bestLen]
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
