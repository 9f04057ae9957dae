package compress

// BatchCompressor is the one place an engine is dispatched and its work
// counted. It amortizes the per-call bookkeeping across a batch of
// lines: the scratch-engine capability check happens once at
// construction, and the ops/out-bits counters accumulate in plain fields
// until Flush folds them into the registry with two atomic adds. A
// BatchCompressor belongs to one goroutine; callers must Flush before
// the batch's counters are observed.
type BatchCompressor struct {
	e   Engine
	se  ScratchEngine // non-nil when e offers the scratch path and s != nil
	lbe *LBE          // devirtualized fast path when the engine is the default LBE
	s   *Scratch

	ops     uint64
	outBits uint64
}

// NewBatchCompressor wraps an engine + scratch pair for batched
// compression. A nil Scratch falls back to the allocating path, exactly
// like CompressWith.
func NewBatchCompressor(e Engine, s *Scratch) BatchCompressor {
	b := BatchCompressor{e: e, s: s}
	if se, ok := e.(ScratchEngine); ok && s != nil {
		b.se = se
		if lbe, ok := e.(*LBE); ok {
			b.lbe = lbe
		}
	}
	return b
}

// Compress encodes one line; the metric writes are deferred to Flush.
// The result aliases the scratch and is valid until the next call.
func (b *BatchCompressor) Compress(line []byte, refs [][]byte) Encoded {
	var enc Encoded
	if b.lbe != nil {
		enc = b.lbe.CompressScratch(b.s, line, refs)
	} else if b.se != nil {
		enc = b.se.CompressScratch(b.s, line, refs)
	} else {
		enc = b.e.Compress(line, refs)
	}
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
