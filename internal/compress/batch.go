package compress

// BatchCompressor is the one place an engine's work is counted. It
// amortizes the per-call bookkeeping across a batch of lines: the
// ops/out-bits counters accumulate in plain fields until Flush folds them
// into the registry with two atomic adds. A BatchCompressor belongs to
// one goroutine; callers must Flush before the batch's counters are
// observed.
type BatchCompressor struct {
	e Engine
	s *Scratch

	ops     uint64
	outBits uint64
}

// NewBatchCompressor wraps an engine + scratch pair for batched
// compression; s must not be nil.
func NewBatchCompressor(e Engine, s *Scratch) BatchCompressor {
	return BatchCompressor{e: e, s: s}
}

// Compress encodes one line; the metric writes are deferred to Flush.
// The result aliases the scratch and is valid until the next call.
func (b *BatchCompressor) Compress(line []byte, refs [][]byte) Encoded {
	enc := b.e.CompressScratch(b.s, line, refs)
	b.ops++
	b.outBits += uint64(enc.NBits)
	return enc
}

// Flush publishes the accumulated counters and resets the accumulator.
func (b *BatchCompressor) Flush() {
	if b.ops == 0 {
		return
	}
	mx, shard := b.s.metrics()
	mx.ops.Add(shard, b.ops)
	mx.outBits.Add(shard, b.outBits)
	b.ops, b.outBits = 0, 0
}
