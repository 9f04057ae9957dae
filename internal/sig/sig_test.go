package sig

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestH3Deterministic(t *testing.T) {
	a, b := NewH3(42), NewH3(42)
	for _, w := range []uint32{0, 1, 0xFFFFFFFF, 0xDEADBEEF, 1 << 31} {
		if a.Hash(w) != b.Hash(w) {
			t.Fatalf("same seed disagrees on %#x", w)
		}
	}
	c := NewH3(43)
	diff := 0
	for w := uint32(1); w < 100; w++ {
		if a.Hash(w) != c.Hash(w) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produce identical hash functions")
	}
}

func TestH3Linearity(t *testing.T) {
	// H3 is linear over GF(2): H(a^b) == H(a)^H(b).
	h := NewH3(7)
	f := func(a, b uint32) bool {
		return h.Hash(a^b) == h.Hash(a)^h.Hash(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestH3ZeroMapsToZero(t *testing.T) {
	if NewH3(1).Hash(0) != 0 {
		t.Fatal("H3 of zero must be zero (empty XOR)")
	}
}

func TestH3Distribution(t *testing.T) {
	// Hashes of sequential small integers should spread across buckets.
	h := NewH3(99)
	buckets := make([]int, 16)
	for w := uint32(1); w <= 4096; w++ {
		buckets[h.Hash(w)%16]++
	}
	for i, n := range buckets {
		if n < 128 || n > 384 { // expect 256 each; allow wide slack
			t.Fatalf("bucket %d has %d of 4096 — badly skewed", i, n)
		}
	}
}

func TestIsTrivial(t *testing.T) {
	cases := []struct {
		w    uint32
		want bool
	}{
		{0x00000000, true},  // all zeroes
		{0xFFFFFFFF, true},  // all ones
		{0x000000FF, true},  // 24 leading zeroes
		{0x000001FF, false}, // 23 leading zeroes
		{0xFFFFFF00, true},  // 24 leading ones
		{0xFFFFFE00, false}, // 23 leading ones
		{0x00000001, true},  // small int
		{0xDEADBEEF, false}, // pointer-like
		{0x7FFFFFFF, false}, // large positive
		{0x80000000, false}, // sign bit only: one leading one then zeros
	}
	for _, c := range cases {
		if got := IsTrivial(c.w); got != c.want {
			t.Errorf("IsTrivial(%#08x) = %v, want %v", c.w, got, c.want)
		}
	}
}

func makeLine(words ...uint32) []byte {
	line := make([]byte, 64)
	for i, w := range words {
		binary.LittleEndian.PutUint32(line[i*4:], w)
	}
	return line
}

func TestInsertSignaturesSkipsTrivial(t *testing.T) {
	e := NewExtractor(64, 1)
	// Words 0..3 trivial, word 4 non-trivial; second half: word 8
	// trivial, word 9 non-trivial.
	line := makeLine(0, 1, 0xFFFFFFFF, 2, 0xCAFEBABE, 0, 0, 0, 0, 0x12345678)
	sigs := e.InsertSignatures(line)
	if len(sigs) != 2 {
		t.Fatalf("got %d signatures, want 2", len(sigs))
	}
	want0 := e.hashWord(0xCAFEBABE)
	want1 := e.hashWord(0x12345678)
	if sigs[0] != want0 || sigs[1] != want1 {
		t.Fatalf("signatures not from first non-trivial words: %v", sigs)
	}
}

func TestInsertSignaturesAllTrivial(t *testing.T) {
	e := NewExtractor(64, 1)
	if got := e.InsertSignatures(make([]byte, 64)); len(got) != 0 {
		t.Fatalf("zero line should yield no signatures, got %d", len(got))
	}
}

func TestInsertSignaturesCollapseDuplicates(t *testing.T) {
	e := NewExtractor(64, 1)
	// Only one non-trivial word, after the midpoint: both offsets
	// advance to the same word.
	line := makeLine(0, 0, 0, 0, 0, 0, 0, 0, 0, 0xABCD1234)
	sigs := e.InsertSignatures(line)
	if len(sigs) != 1 {
		t.Fatalf("duplicate signatures should collapse, got %d", len(sigs))
	}
}

func TestSearchSignaturesMaxAndDedup(t *testing.T) {
	e := NewExtractor(64, 1)
	words := make([]uint32, 16)
	for i := range words {
		words[i] = 0x10000000 + uint32(i) // all non-trivial, distinct
	}
	words[5] = words[3] // one duplicate
	line := makeLine(words...)
	sigs := e.AppendSearchSignatures(nil, line, 16)
	if len(sigs) != 15 {
		t.Fatalf("got %d signatures, want 15 (16 words, 1 dup)", len(sigs))
	}
	capped := e.AppendSearchSignatures(nil, line, 4)
	if len(capped) != 4 {
		t.Fatalf("max not honored: got %d", len(capped))
	}
}

func TestSearchSignaturesZeroLine(t *testing.T) {
	e := NewExtractor(64, 1)
	if got := e.AppendSearchSignatures(nil, make([]byte, 64), 16); len(got) != 0 {
		t.Fatalf("zero line should yield no search signatures, got %d", len(got))
	}
}

func TestNonTrivialWords(t *testing.T) {
	line := makeLine(0, 0xDEADBEEF, 1, 0xFFFFFF00, 0x11223344)
	if got := NonTrivialWords(line); got != 2 {
		t.Fatalf("NonTrivialWords = %d, want 2", got)
	}
}

func TestSimilarLinesShareSignatures(t *testing.T) {
	// Core premise of the paper: a line and a slightly edited copy
	// share most signatures, so the hash table can find them.
	e := NewExtractor(64, 1)
	rng := rand.New(rand.NewSource(5))
	base := make([]byte, 64)
	for i := range base {
		base[i] = byte(rng.Intn(256))
	}
	edited := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(edited[28:], 0x55667788) // edit one word
	a := e.AppendSearchSignatures(nil, base, 16)
	b := e.AppendSearchSignatures(nil, edited, 16)
	shared := 0
	set := map[Signature]bool{}
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		if set[s] {
			shared++
		}
	}
	if shared < 10 {
		t.Fatalf("edited copy shares only %d signatures", shared)
	}
}
