package workload

import "math/rand"

// math/rand's seeded source is an additive lagged-Fibonacci generator
// over rngLen 64-bit words. Seed fills every word from a walk of the
// Lehmer LCG x → lcgMul·x mod lcgMod: 20 warm-up steps, then three
// steps per word, XORed with a fixed per-word constant.
const (
	rngLen = 607
	rngTap = 273
	lcgMul = 48271
	lcgMod = 1<<31 - 1
)

var (
	// lcgJump[i] = lcgMul^(21+3i) mod lcgMod takes a seed straight to
	// the first of word i's three LCG values.
	lcgJump [rngLen]uint32
	// rngCooked are the stdlib's per-word additive constants.
	rngCooked [rngLen]int64
)

func lcgStep(x, mul uint64) uint64 { return x * mul % lcgMod }

// lcgWord is the LCG part of state word i for a normalized seed.
func lcgWord(seed uint64, i int) int64 {
	x := lcgStep(seed, uint64(lcgJump[i]))
	u := int64(x) << 40
	x = lcgStep(x, lcgMul)
	u ^= int64(x) << 20
	x = lcgStep(x, lcgMul)
	return u ^ int64(x)
}

// init builds the jump table and recovers rngCooked from a stdlib
// source: output n is the sum of two state words and overwrites one of
// them, so the first rngLen outputs determine the seeded state, and
// the state XOR its LCG part is the constant.
func init() {
	mul3 := lcgStep(lcgStep(lcgMul, lcgMul), lcgMul)
	j := uint64(1)
	for k := 0; k < 21; k++ {
		j = lcgStep(j, lcgMul)
	}
	for i := range lcgJump {
		lcgJump[i] = uint32(j)
		j = lcgStep(j, mul3)
	}

	const seed = 1
	const feed0 = rngLen - rngTap
	ref := rand.NewSource(seed).(rand.Source64)
	var out [rngLen + 1]int64 // out[n] is the n-th output, from 1
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(ref.Uint64())
	}
	// Step n writes out[n] = vec[feed0-n] + vec[-n] (indices mod
	// rngLen). Past n = rngTap the tap slot already holds out[n-rngTap];
	// before that both operands are still seeded words.
	var vec [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		vec[(feed0-n+rngLen)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		vec[feed0-n] = out[n] - vec[rngLen-n]
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lcgWord(seed, i)
	}
}

// lazySource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s but whose Seed is O(1): it records the seed
// and bumps an epoch, and each state word is derived the first time the
// generator step reads it. Content derivation reseeds per cache line
// and draws a few dozen values, so it pays for the words it touches
// instead of all rngLen. Identity with the stdlib stream rests on Go's
// guarantee that seeded math/rand output never changes;
// TestLazySourceMatchesStdlib and FuzzSeededSourceParity check it.
type lazySource struct {
	tap, feed int
	seed      uint64 // normalized into [1, lcgMod)
	epoch     uint32
	stamp     [rngLen]uint32 // vec[i] is live iff stamp[i] == epoch
	vec       [rngLen]int64
}

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.epoch++
	if s.epoch == 0 {
		// Wrapped: a stamp left 2^32 seeds ago would read as live.
		s.stamp = [rngLen]uint32{}
		s.epoch = 1
	}
}

func (s *lazySource) word(i int) int64 {
	if s.stamp[i] != s.epoch {
		s.stamp[i] = s.epoch
		s.vec[i] = lcgWord(s.seed, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
