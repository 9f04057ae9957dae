package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"cable/internal/cache"
	"cable/internal/sig"
)

func cbvLine(words ...uint32) []byte {
	line := make([]byte, 64)
	for i, w := range words {
		binary.LittleEndian.PutUint32(line[i*4:], w)
	}
	return line
}

func TestCoverageVector(t *testing.T) {
	data := cbvLine(1, 2, 3, 4)
	ref := cbvLine(1, 9, 3, 9)
	cbv := CoverageVector(data, ref)
	// Words 0 and 2 match; words 4..15 are zero in both → match too.
	want := uint32(0b0101) | uint32(0xFFF0)
	if cbv != want {
		t.Fatalf("cbv = %016b, want %016b", cbv, want)
	}
}

func TestCoverageVectorIdentical(t *testing.T) {
	data := cbvLine(7, 8, 9)
	if cbv := CoverageVector(data, data); cbv != 0xFFFF {
		t.Fatalf("identical lines cbv = %x, want ffff", cbv)
	}
}

func candList(cbvs ...uint32) []candidate {
	cands := make([]candidate, len(cbvs))
	for i, v := range cbvs {
		cands[i] = candidate{id: cache.LineID{Index: i, Way: 0}, cbv: v, dups: 1}
	}
	return cands
}

func TestSelectRefsPaperExample(t *testing.T) {
	// §III-C worked example: CBVs 1100, 0110, 0011. Greedy-with-swap
	// drops 0110 and selects {1100, 0011} for full coverage.
	cands := candList(0b1100, 0b0110, 0b0011)
	got := selectRefs(cands, 3, nil)
	if len(got) != 2 {
		t.Fatalf("selected %d refs, want 2", len(got))
	}
	if got[0].cbv|got[1].cbv != 0b1111 {
		t.Fatalf("combined coverage %04b, want 1111", got[0].cbv|got[1].cbv)
	}
	for _, c := range got {
		if c.cbv == 0b0110 {
			t.Fatal("0110 should have been dropped")
		}
	}
}

func TestSelectRefsDropsRedundant(t *testing.T) {
	// A candidate fully covered by the others must not waste a
	// RemoteLID on the wire.
	cands := candList(0b1111, 0b0011)
	got := selectRefs(cands, 3, nil)
	if len(got) != 1 || got[0].cbv != 0b1111 {
		t.Fatalf("got %d refs (cbv %04b)", len(got), got[0].cbv)
	}
}

func TestSelectRefsMaxRefs(t *testing.T) {
	cands := candList(0b0001, 0b0010, 0b0100, 0b1000)
	got := selectRefs(cands, 3, nil)
	if len(got) != 3 {
		t.Fatalf("selected %d refs, want 3 (cap)", len(got))
	}
	if got2 := selectRefs(cands, 0, nil); got2 != nil {
		t.Fatal("maxRefs=0 must select nothing")
	}
}

func TestSelectRefsNoCoverage(t *testing.T) {
	if got := selectRefs(candList(0, 0), 3, nil); got != nil {
		t.Fatalf("zero-coverage candidates selected: %v", got)
	}
	if got := selectRefs(nil, 3, nil); got != nil {
		t.Fatal("empty candidate list selected refs")
	}
}

func TestSelectRefsPrefersHigherDups(t *testing.T) {
	cands := candList(0b1100, 0b1100)
	cands[1].dups = 5
	got := selectRefs(cands, 3, nil)
	if len(got) != 1 || got[0].dups != 5 {
		t.Fatalf("tie should prefer higher dup count, got %+v", got)
	}
}

func TestPreRank(t *testing.T) {
	cands := candList(1, 1, 1, 1, 1, 1, 1, 1)
	cands[3].dups = 9
	cands[6].dups = 5
	top := preRank(cands, 3)
	if len(top) != 3 {
		t.Fatalf("pre-rank kept %d", len(top))
	}
	if top[0].dups != 9 || top[1].dups != 5 {
		t.Fatalf("pre-rank order wrong: %+v", top)
	}
	// Stability: ties keep first-seen order (homeID index 0 next).
	if top[2].id.Index != 0 {
		t.Fatalf("pre-rank not stable: %+v", top[2])
	}
}

// naiveCoverageVector is the per-word loop the SWAR CoverageVector
// replaced; the two must agree on every line length and word pattern.
func naiveCoverageVector(data, ref []byte) uint32 {
	var cbv uint32
	n := len(data) / sig.WordSize
	for i := 0; i < n; i++ {
		if sig.Word(data, i*sig.WordSize) == sig.Word(ref, i*sig.WordSize) {
			cbv |= 1 << uint(i)
		}
	}
	return cbv
}

// The sizes run past the vector's 32 words (every codec line size from
// 16 to 256 bytes among them): the naive form loses the bits of words
// 32 and up to the shift, and CoverageVector must lose exactly those.
func TestCoverageVectorMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{0, 4, 8, 12, 16, 32, 60, 64, 124, 128, 132, 192, 256, 4096} {
		for trial := 0; trial < 200; trial++ {
			data := make([]byte, size)
			ref := make([]byte, size)
			rng.Read(data)
			copy(ref, data)
			// Flip a few words so matches and mismatches interleave.
			for k := rng.Intn(4) + size/64; k > 0 && size > 0; k-- {
				ref[rng.Intn(size)] ^= byte(1 << uint(rng.Intn(8)))
			}
			if got, want := CoverageVector(data, ref), naiveCoverageVector(data, ref); got != want {
				t.Fatalf("size %d: cbv %032b, want %032b", size, got, want)
			}
		}
	}
}

// TestPickMatchesReferenceExhaustive checks the loop-form picker
// against the recursive enumeration on every candidate list of up to
// six entries over a 4-bit CBV alphabet with duplication counts 1 and
// 2, at every reference limit: coverage, both tie-breaks, the
// first-enumerated rule and the dropping of redundant members all
// decide some of these.
func TestPickMatchesReferenceExhaustive(t *testing.T) {
	const alphabet = 16 * 2 // cbv × dups
	var out []candidate
	var lists int
	for n := 0; n <= 6; n++ {
		total := 1
		for i := 0; i < n; i++ {
			total *= alphabet
		}
		// Lists of five and six are sampled at a stride coprime to the
		// alphabet (a full walk is 2^30 lists); shorter ones are all run.
		stride := 1
		if n >= 5 {
			stride = total/(1<<17) + 1
			for stride%2 == 0 {
				stride++
			}
		}
		cands := make([]candidate, n)
		for code := 0; code < total; code += stride {
			for i, c := 0, code; i < n; i, c = i+1, c/alphabet {
				cands[i] = candidate{id: cache.LineID{Index: i}, cbv: uint32(c % 16), dups: 1 + c/16%2}
			}
			lists++
			for maxRefs := 1; maxRefs <= 3; maxRefs++ {
				out = selectRefs(cands, maxRefs, out)
				want := referenceSelect(cands, maxRefs)
				same := len(out) == len(want)
				for i := 0; same && i < len(want); i++ {
					same = out[i].id == want[i].id
				}
				if !same {
					t.Fatalf("cands %+v, maxRefs %d: picked %+v, reference %+v", cands, maxRefs, out, want)
				}
			}
		}
	}
	t.Logf("%d candidate lists", lists)
}
