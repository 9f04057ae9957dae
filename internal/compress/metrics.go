package compress

import "cable/internal/obs"

// compressCounters aggregates engine invocations process-wide. Each
// Scratch lazily resolves its block and draws its own shard the first
// time a BatchCompressor flushes through it, so concurrent experiment
// cells do not contend on one cache line.
type compressCounters struct {
	ops     *obs.Counter
	outBits *obs.Counter
}

func newCompressCounters(r *obs.Registry) compressCounters {
	return compressCounters{
		ops:     r.Counter("compress.ops"),
		outBits: r.Counter("compress.out_bits"),
	}
}

// metrics resolves the scratch's counter block and shard on first use
// (the zero Scratch is valid and counts into the process default).
func (s *Scratch) metrics() (compressCounters, uint32) {
	if s.mx.ops == nil {
		s.mx = newCompressCounters(nil)
	}
	if !s.hasShard {
		s.shard, s.hasShard = obs.NextShard(), true
	}
	return s.mx, s.shard
}
