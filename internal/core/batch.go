package core

import (
	"cable/internal/cache"
	"cable/internal/compress"
	"cable/internal/obs"
	"cable/internal/sig"
)

// This file is the fill pipeline — the one implementation behind
// EncodeFill, EncodeFillData and EncodeFills (the decode side has one
// decoder per end, reading the wire image: DecodeFillFrom in remote.go,
// which DecodeFill forwards to, and DecodeWritebackFrom in home.go).
// Where a fill's time goes, by CPU
// share of fill on the codec's mixed stream (bash benchmark/run.sh
// --workload codec_mix --trace 1, at PR 24): the standalone compress
// 26 %, the reference-seeded DIFF compress 27 %, gathering candidates
// 28 % (the hash-table probe 10, way-map and data-array reads 10, the
// CBVs 8), picking the references 7 %, search signatures 6 %, and the
// synchronisation after the encode 4 %. The two compress calls are the
// budget; the bookkeeping is kept out of it: every counter and Stats
// field accumulates in plain fields (encodeAcc) that an entry point
// flushes when it is done — after its one line, or after its whole batch
// — instead of ~30 atomic increments a line; the home cache is probed
// once per line; the pointer width is read from the end; and the
// hash-table probe is fused with candidate deduplication. The way-map
// and the engine are called through their interfaces only: a private WMT
// and a SuperWMT view take the same path, as every engine does.
//
// Line i+1 may reference line i (the Shared branch inserts the filled
// line into the HT/WMT before the next encode), so lines are processed
// strictly in order and a batch differs from the same lines sent one by
// one only in when the counters become visible.
// TestEncodeFillsMatchesSequential pins that; the reference encoder in
// reference_test.go pins the payload bits themselves.

// BatchFill is one fill request of a batch: the same triple EncodeFill
// takes.
type BatchFill struct {
	LineAddr uint64
	State    cache.State
	ReplWay  int
}

// encodeAcc accumulates counter and HomeStats updates in plain fields.
// flush publishes them with one atomic add per touched counter instead
// of one per event.
type encodeAcc struct {
	fills          uint64
	sourceBits     uint64
	thresholdSkips uint64
	sigsSearched   uint64
	htHits         uint64
	htInserts      uint64
	htRemoves      uint64
	htCollisions   uint64
	candidatesRead uint64
	wmtHits        uint64
	wmtMisses      uint64
	outcomeRaw     uint64
	outcomeStand   uint64
	outcomeDiff    uint64
	refsUsed       [MaxRefsLimit + 1]uint64
	payloadBits    uint64
	payloadDist    obs.HistAcc
}

// flush publishes the accumulated events to the metrics registry and the
// exported Stats block, and the compressors' deferred counters with
// them. Stats and counters therefore advance when an entry point
// returns, not per line of a batch.
func (h *HomeEnd) flush() {
	a := &h.acc
	s := &h.Stats
	s.Fills += a.fills
	s.SourceBits += a.sourceBits
	s.ThresholdSkips += a.thresholdSkips
	s.SigsSearched += a.sigsSearched
	s.CandidatesRead += a.candidatesRead
	s.RawWins += a.outcomeRaw
	s.StandaloneWins += a.outcomeStand
	s.DiffWins += a.outcomeDiff
	s.PayloadBits += a.payloadBits
	for i, v := range a.refsUsed {
		s.RefsUsed[i] += v
	}

	mx, shard := h.mx, h.shard
	if a.fills != 0 {
		mx.fills.Add(shard, a.fills)
		mx.sourceBits.Add(shard, a.sourceBits)
		mx.payloadBits.Add(shard, a.payloadBits)
	}
	if a.thresholdSkips != 0 {
		mx.thresholdSkips.Add(shard, a.thresholdSkips)
	}
	if a.sigsSearched != 0 {
		mx.sigsSearched.Add(shard, a.sigsSearched)
		mx.htProbes.Add(shard, a.sigsSearched)
	}
	if a.htHits != 0 {
		mx.htHits.Add(shard, a.htHits)
	}
	if a.htInserts != 0 {
		mx.htInserts.Add(shard, a.htInserts)
	}
	if a.htRemoves != 0 {
		mx.htRemoves.Add(shard, a.htRemoves)
	}
	if a.htCollisions != 0 {
		mx.htCollisions.Add(shard, a.htCollisions)
	}
	if a.candidatesRead != 0 {
		mx.candidatesRead.Add(shard, a.candidatesRead)
	}
	if a.wmtHits != 0 {
		mx.wmtHits.Add(shard, a.wmtHits)
	}
	if a.wmtMisses != 0 {
		mx.wmtMisses.Add(shard, a.wmtMisses)
	}
	if a.outcomeRaw != 0 {
		mx.outcomeRaw.Add(shard, a.outcomeRaw)
	}
	if a.outcomeStand != 0 {
		mx.outcomeStand.Add(shard, a.outcomeStand)
	}
	if a.outcomeDiff != 0 {
		mx.outcomeDiff.Add(shard, a.outcomeDiff)
	}
	for i, v := range a.refsUsed {
		if v != 0 {
			mx.refsUsed[i].Add(shard, v)
		}
	}
	a.payloadDist.FlushTo(mx.payloadDist)
	*a = encodeAcc{}
	h.scr.flushCompress()
}

// EncodeFills encodes a batch of fills in request order, invoking emit
// for each with the payload and latency EncodeFill would have produced.
// Like EncodeFill's result, the payload aliases the end's scratch and is
// valid only for the duration of the callback; retainers must Clone.
//
// Every observable effect — payload bits, HT/WMT state, flight-recorder
// records, and (once the call returns) HomeStats and metric totals — is
// identical to calling EncodeFill once per request; Stats and counters
// are published at batch completion rather than per line. On an error
// (line absent from the home cache) the effects of the already-emitted
// prefix stand, matching a sequential caller that stopped at the failing
// line.
func (h *HomeEnd) EncodeFills(reqs []BatchFill, emit func(i int, p Payload, lat FillLatency)) error {
	defer h.flush()
	var payload Payload
	for i := range reqs {
		line, homeID, ok := h.home.Probe(reqs[i].LineAddr)
		if !ok {
			return h.errNotPresent(reqs[i].LineAddr)
		}
		lat := h.fill(reqs[i], line.Data, line.Data, homeID, &payload)
		if emit != nil {
			emit(i, payload, lat)
		}
	}
	return nil
}

// fill is the per-line step: encode data (§III-C/E), then synchronize
// the home-side structures for the transfer (§III-F), then tell the
// recorder. cached is the home cache's own copy of the line, at
// homeID — data itself for an inclusive home, nil when the line is
// not to become a reference (a non-inclusive home forwarding a line it
// does not hold). The winning payload is written through out and
// aliases the end's scratch.
func (h *HomeEnd) fill(req BatchFill, data, cached []byte, homeID cache.LineID, out *Payload) FillLatency {
	acc := &h.acc
	acc.fills++
	acc.sourceBits += uint64(len(data) * 8)
	// bits is out.Bits(lidBits) by construction (AckSeq is not
	// transmitted in the sized header), so nothing below recomputes it.
	bits, skip, lat := h.encode(data, out)

	// The displaced occupant of the target slot can no longer serve as a
	// reference; a Shared line becomes one if the home caches it (always
	// true for inclusive hierarchies).
	rSlot := cache.LineID{Index: int(req.LineAddr & uint64(h.remoteSets-1)), Way: req.ReplWay}
	acc.htRemoves += h.noteDisplacement(rSlot)
	if req.State == cache.Shared && cached != nil {
		h.wmt.Set(rSlot, homeID)
		h.insertLine(cached, homeID)
	}
	out.AckSeq = h.AckSeq
	acc.payloadBits += uint64(bits)
	acc.payloadDist.Observe(uint64(bits))
	class := payloadClass(out)
	switch class {
	case obs.ClassRaw:
		acc.outcomeRaw++
	case obs.ClassStandalone:
		acc.outcomeStand++
	default:
		acc.outcomeDiff++
	}
	if out.Compressed {
		acc.refsUsed[len(out.Refs)]++
	}
	if h.rec != nil {
		h.rec.Encode(h.recTrack, class, bits, skip)
	}
	return lat
}

// encode runs the §III-C/§III-E decision sequence on one line:
// standalone compression, threshold check, signature search, CBV
// ranking, DIFF compression, smallest payload wins. It returns the
// winner's exact transmitted size and whether the standalone threshold
// skipped the search.
func (h *HomeEnd) encode(data []byte, out *Payload) (bits int, skip bool, lat FillLatency) {
	scr := &h.scr
	bestBits, standBits := scr.floor(data, out)
	lat = FillLatency{CompressCycles: CompressLatency, DecompressCycles: DecompressLatency}
	if h.standaloneSkips(standBits) {
		h.acc.thresholdSkips++
		return bestBits, true, lat
	}
	scr.searchSigs = h.ex.AppendSearchSignatures(scr.searchSigs[:0], data, h.cfg.MaxSearchSigs)
	h.acc.sigsSearched += uint64(len(scr.searchSigs))
	lat.SearchCycles = searchLatency(len(scr.searchSigs))
	cands := h.gatherCandidates(data, scr.searchSigs)
	return scr.tryDiff(data, cands, h.cfg.MaxRefs, bestBits, out), false, lat
}

// init binds the scratch to its end's engine, registry and remote
// geometry, whose pointer width the tag-pointer ablation may override.
func (s *encScratch) init(e compress.Engine, cfg Config, remote *cache.Cache) {
	s.standalone.UseRegistry(cfg.Metrics)
	s.diff.UseRegistry(cfg.Metrics)
	s.standaloneC = compress.NewBatchCompressor(e, &s.standalone)
	s.diffC = compress.NewBatchCompressor(e, &s.diff)
	s.idxBits, s.wayBits = remote.IndexBits(), remote.WayBits()
	s.lidBits = s.idxBits + s.wayBits
	if cfg.PointerBitsOverride > 0 {
		s.lidBits = cfg.PointerBitsOverride
	}
}

// flushCompress publishes the two compressors' deferred counters.
func (s *encScratch) flushCompress() {
	s.standaloneC.Flush()
	s.diffC.Flush()
}

// floor compresses data without references and keeps the raw line when
// that is smaller: the payload any reference-seeded DIFF has to beat.
// It returns the winner's transmitted size and the standalone size the
// threshold check reads.
func (s *encScratch) floor(data []byte, out *Payload) (bestBits, standBits int) {
	stand := s.standaloneC.Compress(data, nil)
	*out = Payload{Compressed: true, Diff: stand}
	bestBits = out.Bits(s.lidBits)
	if rawBits := flagBits + len(data)*8; rawBits < bestBits {
		s.raw = append(s.raw[:0], data...)
		*out = Payload{Raw: s.raw}
		bestBits = rawBits
	}
	return bestBits, stand.NBits
}

// tryDiff picks up to maxRefs references from cands by CBV coverage,
// DIFF-compresses data against them, and replaces out when the result
// is smaller than bestBits. It returns the winner's transmitted size.
func (s *encScratch) tryDiff(data []byte, cands []candidate, maxRefs, bestBits int, out *Payload) int {
	s.refs = selectRefs(cands, maxRefs, s.refs[:0])
	if len(s.refs) == 0 {
		return bestBits
	}
	s.refData = s.refData[:0]
	s.refIDs = s.refIDs[:0]
	for _, c := range s.refs {
		s.refData = append(s.refData, c.data)
		s.refIDs = append(s.refIDs, c.remoteID)
	}
	p := Payload{Compressed: true, Refs: s.refIDs, Diff: s.diffC.Compress(data, s.refData)}
	if b := p.Bits(s.lidBits); b < bestBits {
		*out, bestBits = p, b
	}
	return bestBits
}

// probe looks every search signature up in ht, deduplicating the
// results in first-seen order through the scratch index (O(1) per
// result) while counting how many signatures mapped to each line, then
// pre-ranks by that count. It returns candidates carrying only id and
// dups, and the number of live entries the lookups returned.
func (s *encScratch) probe(ht *HashTable, sigs []sig.Signature, accessCount int) ([]candidate, uint64) {
	cands := s.cands[:0]
	s.dedup.begin(len(sigs) * ht.depth)
	var hits uint64
	for _, sg := range sigs {
		for _, e := range ht.bucket(sg) {
			if e == 0 {
				continue
			}
			hits++
			id := e.id()
			if pos, dup := s.dedup.insert(id, int32(len(cands))); dup {
				cands[pos].dups++
			} else {
				cands = append(cands, candidate{id: id, dups: 1})
			}
		}
	}
	s.cands = cands
	return preRank(cands, accessCount), hits
}

// standaloneSkips reports whether a standalone encode of nbits clears
// the threshold, via the memoized table. Out-of-range sizes — possible
// only for an engine that expands beyond LBE's worst case — are compared
// directly.
func (h *HomeEnd) standaloneSkips(nbits int) bool {
	if h.thrSkip == nil {
		// LBE's worst case is a 34-bit literal code per 32-bit source
		// word; size the table past that so real encodes always hit it.
		n := (h.lineSize/4)*34 + 2
		h.thrSkip = make([]bool, n)
		for nb := range h.thrSkip {
			h.thrSkip[nb] = compress.Ratio(h.lineSize, nb) >= h.cfg.StandaloneThreshold
		}
	}
	if nbits >= 0 && nbits < len(h.thrSkip) {
		return h.thrSkip[nbits]
	}
	return compress.Ratio(h.lineSize, nbits) >= h.cfg.StandaloneThreshold
}

// gatherCandidates probes the hash table with every search signature,
// reads the pre-ranked candidates that the WMT says are still resident
// at the remote from the data array, and builds their CBVs.
func (h *HomeEnd) gatherCandidates(data []byte, sigs []sig.Signature) []candidate {
	acc := &h.acc
	cands, hits := h.scr.probe(h.ht, sigs, h.cfg.AccessCount)
	acc.htHits += hits
	out := cands[:0]
	for _, c := range cands {
		var resident bool
		if c.remoteID, resident = h.wmt.Lookup(c.id); !resident {
			acc.wmtMisses++
			continue
		}
		acc.wmtHits++
		ref := h.home.ReadByID(c.id)
		acc.candidatesRead++
		if ref == nil {
			continue
		}
		c.data = ref.Data
		c.cbv = CoverageVector(data, ref.Data)
		if c.cbv == 0 {
			continue // hash collision: no similarity at all (Fig 7)
		}
		out = append(out, c)
	}
	return out
}

// insertLine records data's insert-signatures for id through the reused
// signature scratch.
func (h *HomeEnd) insertLine(data []byte, id cache.LineID) {
	h.scr.insertSigs = h.ex.AppendInsertSignatures(h.scr.insertSigs[:0], data)
	for _, s := range h.scr.insertSigs {
		if h.ht.Insert(s, id) {
			h.acc.htCollisions++
		}
	}
	h.acc.htInserts += uint64(len(h.scr.insertSigs))
}

// removeLine scrubs data's insert-signatures for id and returns how many
// it looked up, for the caller's ht_removes counter (deferred inside the
// pipeline, immediate in the synchronization handlers).
func (h *HomeEnd) removeLine(data []byte, id cache.LineID) uint64 {
	h.scr.insertSigs = h.ex.AppendInsertSignatures(h.scr.insertSigs[:0], data)
	for _, s := range h.scr.insertSigs {
		h.ht.Remove(s, id)
	}
	return uint64(len(h.scr.insertSigs))
}

// noteDisplacement handles the implicit eviction conveyed by the
// way-replacement info: whatever the WMT tracked in the target remote
// slot is about to be displaced, so its signatures must be removed.
// Returns removeLine's count (0 when the slot tracked nothing).
func (h *HomeEnd) noteDisplacement(rSlot cache.LineID) uint64 {
	displaced, ok := h.wmt.Clear(rSlot)
	if !ok {
		return 0
	}
	if line := h.home.ReadByID(displaced); line != nil {
		return h.removeLine(line.Data, displaced)
	}
	return 0
}
