package core

import (
	"fmt"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
	"cable/internal/obs"
	"cable/internal/sig"
)

// RemoteEnd is the decompressing side of a CABLE link: the smaller
// cache that receives fills (the on-chip LLC in the memory-link use
// case). It owns its own hash table — populated only from lines
// received from the home cache — which drives write-back compression
// (§III-G), and the eviction buffer that closes the §IV-A race.
type RemoteEnd struct {
	cfg    Config
	remote *cache.Cache
	engine compress.Engine
	ex     *sig.Extractor
	ht     *HashTable
	evbuf  *EvictionBuffer

	lineSize int

	scr encScratch

	mx    *remoteCounters
	shard uint32

	// rec/recTrack feed the optional flight recorder (nil = disabled,
	// one pointer check per decode/WB-encode).
	rec      *obs.Recorder
	recTrack *obs.Track

	// Stats accumulates decoder/WB-encoder events.
	Stats RemoteStats
}

// RemoteStats counts remote-end events.
type RemoteStats struct {
	FillDecodes   uint64
	RescuedRefs   uint64 // references served by the eviction buffer
	Writebacks    uint64
	WBRawWins     uint64
	WBStandalone  uint64
	WBDiffWins    uint64
	WBPayloadBits uint64
	WBSourceBits  uint64
}

// NewRemoteEnd builds the remote side of a link. The hash table is
// sized against the remote cache with the same size factor.
func NewRemoteEnd(cfg Config, remote *cache.Cache) (*RemoteEnd, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := compress.NewEngine(cfg.EngineName)
	if err != nil {
		return nil, err
	}
	buckets := int(float64(remote.NumLines()) * cfg.HashSizeFactor / float64(cfg.BucketDepth))
	if buckets < 1 {
		buckets = 1
	}
	r := &RemoteEnd{
		cfg:      cfg,
		remote:   remote,
		engine:   eng,
		ex:       sig.NewExtractorN(remote.Config().LineSize, cfg.SigSeed, cfg.InsertSigs),
		ht:       NewHashTable(buckets, cfg.BucketDepth),
		evbuf:    NewEvictionBuffer(),
		lineSize: remote.Config().LineSize,
	}
	r.mx, r.shard = remoteMetricsIn(cfg.Metrics)
	r.scr.init(eng, cfg, remote)
	return r, nil
}

// SetRecorder attaches (or, with nil, detaches) the flight recorder.
// Fill decodes and write-back encodes on this end land on track t.
func (r *RemoteEnd) SetRecorder(rec *obs.Recorder, t *obs.Track) { r.rec, r.recTrack = rec, t }

// HashTable exposes the remote hash table for tests and sizing.
func (r *RemoteEnd) HashTable() *HashTable { return r.ht }

// EvictionBuffer exposes the eviction buffer.
func (r *RemoteEnd) EvictionBuffer() *EvictionBuffer { return r.evbuf }

// RemoteLIDBits is the pointer width for this cache's geometry, or the
// configured override for the tag-pointer ablation.
func (r *RemoteEnd) RemoteLIDBits() int { return r.scr.lidBits }

// DecodeFill reconstructs a fill payload, rejecting a raw one that is
// not one line: it writes the payload's image into this end's scratch
// and decodes that with DecodeFillFrom, AckSeq riding beside it. Errors
// and the result's lifetime are DecodeFillFrom's.
func (r *RemoteEnd) DecodeFill(p Payload) ([]byte, error) {
	if !p.Compressed && len(p.Raw) != r.lineSize {
		return nil, fmt.Errorf("core: raw fill of %dB, want %dB: %w", len(p.Raw), r.lineSize, ErrTruncatedPayload)
	}
	w := &r.scr.decW
	w.Reset()
	p.AppendTo(w, r.scr.idxBits, r.scr.wayBits)
	r.scr.decR.Reset(w.Bytes(), w.Len())
	return r.DecodeFillFrom(&r.scr.decR, p.AckSeq)
}

// DecodeFillFrom is the fill decoder. It reads one payload image
// (Payload.AppendTo's layout, for this cache's geometry) at br's
// position and reconstructs the line, leaving br just after the image's
// last bit, so images packed back to back decode one call each — the
// next image's references may name the slot this line is about to be
// installed in. References are read from the remote data array by
// RemoteLID; if a referenced slot was evicted after the home end,
// having acknowledged ack (the AckSeq that rides beside the image,
// §IV-A), chose it, the eviction buffer supplies the copy. The decode
// is counted once the image's header has parsed. The result aliases
// this end's decode scratch and is valid until the next decode;
// retainers must copy (the simulators' caches all copy on install).
func (r *RemoteEnd) DecodeFillFrom(br *bits.Reader, ack uint64) ([]byte, error) {
	var rescues uint64
	line, spanBits, err := r.scr.receive(br, r.engine, r.lineSize, func(rid cache.LineID) ([]byte, error) {
		if data := r.evbuf.Resolve(rid, ack); data != nil {
			rescues++
			return data, nil
		}
		if l := r.remote.ReadByID(rid); l != nil {
			return l.Data, nil
		}
		return nil, fmt.Errorf("core: fill references empty remote slot %v: %w", rid, ErrBadReference)
	})
	if spanBits < 0 {
		return nil, err
	}
	if r.rec != nil {
		r.rec.Span(r.recTrack, obs.EvDecode, spanBits)
	}
	r.Stats.FillDecodes++
	r.Stats.RescuedRefs += rescues
	r.mx.fillDecodes.Inc(r.shard)
	if rescues != 0 {
		r.mx.evictRescues.Add(r.shard, rescues)
	}
	return line, err
}

// insertLine and removeLine mirror the home end's scratch-backed
// hash-table maintenance.
func (r *RemoteEnd) insertLine(data []byte, id cache.LineID) {
	r.scr.insertSigs = r.ex.AppendInsertSignatures(r.scr.insertSigs[:0], data)
	for _, s := range r.scr.insertSigs {
		r.ht.Insert(s, id)
	}
	r.mx.htInserts.Add(r.shard, uint64(len(r.scr.insertSigs)))
}

func (r *RemoteEnd) removeLine(data []byte, id cache.LineID) {
	r.scr.insertSigs = r.ex.AppendInsertSignatures(r.scr.insertSigs[:0], data)
	for _, s := range r.scr.insertSigs {
		r.ht.Remove(s, id)
	}
	r.mx.htRemoves.Add(r.shard, uint64(len(r.scr.insertSigs)))
}

// OnFillInstalled must be called after the decoded line is installed in
// the remote cache: shared lines enter the remote hash table so future
// write-backs can reference them (§III-F).
func (r *RemoteEnd) OnFillInstalled(id cache.LineID, data []byte, state cache.State) {
	if state == cache.Shared {
		r.insertLine(data, id)
	}
}

// OnEviction must be called when the remote cache evicts the line that
// was at id with contents data. It scrubs the hash table, buffers the
// copy against in-flight references, and returns the EvictSeq to embed
// in the eviction notice (§IV-A).
func (r *RemoteEnd) OnEviction(id cache.LineID, data []byte) uint64 {
	r.removeLine(data, id)
	r.mx.evictBuffered.Inc(r.shard)
	return r.evbuf.Add(id, data)
}

// OnAck releases eviction-buffer entries the home cache has
// acknowledged (piggybacked on responses).
func (r *RemoteEnd) OnAck(seq uint64) { r.evbuf.Release(seq) }

// OnSilentEviction scrubs a line evicted under the §IV-B silent
// protocol: no eviction notice is sent — the home cache learns of the
// displacement from the replacement-way info in the request that caused
// it — so nothing enters the eviction buffer. Only valid for 1-1 or
// linearly-interleaved home mappings, where the displacement is
// processed before any response that could reference the victim.
func (r *RemoteEnd) OnSilentEviction(id cache.LineID, data []byte) {
	r.removeLine(data, id)
}

// OnUpgrade must be called when the core writes to a shared line: it
// stops serving as a reference.
func (r *RemoteEnd) OnUpgrade(id cache.LineID, data []byte) {
	r.removeLine(data, id)
}

// EncodeWriteback compresses a dirty line being written back to the
// home cache. References come from the remote end's own hash table and
// must be clean shared lines; the payload carries the remote's own
// LineIDs, which the home end translates through its WMT (§III-G).
// Write-back compression is disabled for non-inclusive hierarchies.
// Like EncodeFill payloads, the result aliases this end's scratch and
// is valid until the next encode; retainers must Clone it.
func (r *RemoteEnd) EncodeWriteback(data []byte) Payload {
	r.Stats.Writebacks++
	r.Stats.WBSourceBits += uint64(len(data) * 8)
	scr := &r.scr
	var best Payload
	bestBits, standBits := scr.floor(data, &best)
	if r.cfg.WritebackCompression && compress.Ratio(len(data), standBits) < r.cfg.StandaloneThreshold {
		scr.searchSigs = r.ex.AppendSearchSignatures(scr.searchSigs[:0], data, r.cfg.MaxSearchSigs)
		cands := r.gatherWBCandidates(data, scr.searchSigs)
		bestBits = scr.tryDiff(data, cands, r.cfg.MaxRefs, bestBits, &best)
	}
	scr.flushCompress()
	if r.rec != nil {
		r.rec.Span(r.recTrack, obs.EvWBEncode, bestBits)
	}
	r.Stats.WBPayloadBits += uint64(bestBits)
	r.mx.writebacks.Inc(r.shard)
	r.mx.wbPayloadBits.Add(r.shard, uint64(bestBits))
	switch {
	case !best.Compressed:
		r.Stats.WBRawWins++
		r.mx.wbRaw.Inc(r.shard)
	case len(best.Refs) == 0:
		r.Stats.WBStandalone++
		r.mx.wbStandalone.Inc(r.shard)
	default:
		r.Stats.WBDiffWins++
		r.mx.wbDiff.Inc(r.shard)
	}
	return best
}

// gatherWBCandidates mirrors the home-side search against the remote
// cache: candidates must still be present and in Shared state (a line
// that was upgraded or evicted has left the hash table, but verify
// anyway — the structure is allowed to be inexact, the result is not).
func (r *RemoteEnd) gatherWBCandidates(data []byte, sigs []sig.Signature) []candidate {
	cands, _ := r.scr.probe(r.ht, sigs, r.cfg.AccessCount)
	out := cands[:0]
	for _, c := range cands {
		line := r.remote.ReadByID(c.id)
		if line == nil || line.State != cache.Shared {
			continue
		}
		c.remoteID = c.id
		c.data = line.Data
		c.cbv = CoverageVector(data, line.Data)
		if c.cbv == 0 {
			continue
		}
		out = append(out, c)
	}
	return out
}
