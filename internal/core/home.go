package core

import (
	"fmt"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
	"cable/internal/obs"
	"cable/internal/sig"
)

// HomeEnd is the compressing side of a CABLE link: the larger cache
// that services requests (the off-chip L4 in the memory-link use case,
// or the home node's LLC across a coherence link). It owns the
// signature hash table and the Way-Map Table and keeps both
// synchronized from the request/eviction stream it already sees.
type HomeEnd struct {
	cfg    Config
	home   *cache.Cache
	engine compress.Engine
	ex     *sig.Extractor
	ht     *HashTable
	wmt    WayMap

	remoteSets int
	lineSize   int

	scr encScratch
	// acc holds the pipeline's counter and Stats updates between
	// flushes (per EncodeFill call, per EncodeFills batch).
	acc encodeAcc

	// mx/shard feed the process-wide metrics registry: the counter
	// block is shared, the shard (a padded cache line per counter) is
	// private to this end, so hot-path increments never contend.
	mx    *homeCounters
	shard uint32

	// rec/recTrack feed the optional flight recorder (nil = disabled,
	// one pointer check on the encode path).
	rec      *obs.Recorder
	recTrack *obs.Track

	// thrSkip[nbits] caches the standalone-threshold decision for every
	// possible standalone output size (lineSize and threshold are fixed
	// per end), each entry computed with the float comparison the paper
	// states. Built by the first encode; Reset keeps it.
	thrSkip []bool

	// AckSeq is the highest remote EvictSeq this end has processed;
	// it is echoed in responses (§IV-A).
	AckSeq uint64

	// Stats accumulates encoder decisions.
	Stats HomeStats
}

// encScratch holds the reusable buffers of the encode and decode paths
// so that steady-state transfers allocate nothing, plus the steps both
// ends run over them (floor and tryDiff; receive). A link end owns
// exactly one (ends are not goroutine-safe; parallel simulations build
// one link per worker).
type encScratch struct {
	// standaloneC/diffC compress through standalone/diff with their
	// counters deferred to flushCompress; lidBits is the link's
	// transmitted pointer width. All three are fixed by init.
	standaloneC, diffC compress.BatchCompressor
	lidBits            int
	// idxBits/wayBits are the remote geometry wire images carry
	// RemoteLIDs in.
	idxBits, wayBits int

	searchSigs []sig.Signature
	insertSigs []sig.Signature
	cands      []candidate
	refs       []candidate
	refData    [][]byte
	refIDs     []cache.LineID
	raw        []byte
	decRefs    [][]byte
	decOut     []byte // raw-path decode output
	dec        compress.DecScratch
	decW       bits.Writer // DecodeFill's image of a payload
	decR       bits.Reader // over decW
	standalone compress.Scratch
	diff       compress.Scratch
	dedup      dedupIndex
}

// HomeStats counts encoder events.
type HomeStats struct {
	Fills          uint64
	RawWins        uint64 // uncompressed payload was smallest
	StandaloneWins uint64 // compressed without references
	ThresholdSkips uint64 // standalone ratio ≥ threshold, search skipped
	DiffWins       uint64 // reference-seeded DIFF won
	RefsUsed       [4]uint64
	SigsSearched   uint64
	CandidatesRead uint64
	PayloadBits    uint64
	SourceBits     uint64
	WBDecodes      uint64
}

// NewHomeEnd builds the home side of a link between home and a remote
// cache with remote's geometry, using a private per-link WMT. The
// remote cache object is used only for its geometry — the home end
// never reads remote data.
func NewHomeEnd(cfg Config, home, remote *cache.Cache) (*HomeEnd, error) {
	return NewHomeEndWithWayMap(cfg, home, remote, nil)
}

// NewHomeEndWithWayMap builds a home end over an explicit way-map —
// typically a SuperWMT view shared across links (§IV-D). A nil wm gets
// a private WMT. The cache pair must pass CheckPair.
func NewHomeEndWithWayMap(cfg Config, home, remote *cache.Cache, wm WayMap) (*HomeEnd, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := CheckPair(home.Config(), remote.Config()); err != nil {
		return nil, err
	}
	eng, err := compress.NewEngine(cfg.EngineName)
	if err != nil {
		return nil, err
	}
	buckets := int(float64(home.NumLines()) * cfg.HashSizeFactor / float64(cfg.BucketDepth))
	if buckets < 1 {
		buckets = 1
	}
	if wm == nil {
		if wm, err = NewWMT(home.Config(), remote.Config()); err != nil {
			return nil, err
		}
	}
	h := &HomeEnd{
		cfg:        cfg,
		home:       home,
		engine:     eng,
		ex:         sig.NewExtractorN(home.Config().LineSize, cfg.SigSeed, cfg.InsertSigs),
		ht:         NewHashTable(buckets, cfg.BucketDepth),
		wmt:        wm,
		remoteSets: remote.NumSets(),
		lineSize:   home.Config().LineSize,
	}
	h.mx, h.shard = homeMetricsIn(cfg.Metrics)
	h.scr.init(eng, cfg, remote)
	return h, nil
}

// SetRecorder attaches (or, with nil, detaches) the flight recorder.
// Encodes and write-back decodes on this end land on track t.
func (h *HomeEnd) SetRecorder(rec *obs.Recorder, t *obs.Track) { h.rec, h.recTrack = rec, t }

// RemoteLIDBits is the transmitted pointer width (Table III), or the
// configured override for the tag-pointer ablation.
func (h *HomeEnd) RemoteLIDBits() int { return h.scr.lidBits }

// HashTable exposes the hash table (for tests and the area model).
func (h *HomeEnd) HashTable() *HashTable { return h.ht }

// WMT exposes the way-map (for tests and the area model).
func (h *HomeEnd) WMT() WayMap { return h.wmt }

// Engine returns the delegated compression engine.
func (h *HomeEnd) Engine() compress.Engine { return h.engine }

// FillLatency describes the cycle cost of one encoded fill, per the
// §IV-D pipeline model. The paper's results conservatively use the
// worst case; the per-fill numbers feed the adaptive study.
type FillLatency struct {
	SearchCycles     int
	CompressCycles   int
	DecompressCycles int
}

// Total returns end-to-end added latency in cycles.
func (l FillLatency) Total() int { return l.SearchCycles + l.CompressCycles + l.DecompressCycles }

// searchLatency models the 2-signature-per-cycle, 8-stage search
// pipeline: ⌈n/2⌉ issue cycles drained through an 8-cycle pipeline,
// bounded by the paper's best (8) and worst (16) cases.
func searchLatency(nsigs int) int {
	if nsigs == 0 {
		return 0
	}
	lat := (nsigs+1)/2 + 8
	if lat < SearchLatencyBest {
		lat = SearchLatencyBest
	}
	if lat > SearchLatencyWorst {
		lat = SearchLatencyWorst
	}
	return lat
}

// EncodeFill compresses the response for lineAddr, which must be
// present in the home cache (on an L4 miss the simulator installs the
// DRAM fill first — "compression continues as if it was a hit", §V-A).
// state is the coherence state granted to the remote copy and replWay
// the way-replacement info carried in the request (§II-C). EncodeFill
// also performs the home-side synchronization for this transfer.
//
// Every buffer the returned Payload carries (Raw, Refs, Diff bits)
// aliases this end's scratch, so a payload is valid only until the
// next encode on the same end; callers that retain one must Clone it.
// The simulators and link drivers all consume payloads immediately.
func (h *HomeEnd) EncodeFill(lineAddr uint64, state cache.State, replWay int) (Payload, FillLatency, error) {
	line, homeID, ok := h.home.Probe(lineAddr)
	if !ok {
		return Payload{}, FillLatency{}, h.errNotPresent(lineAddr)
	}
	var p Payload
	lat := h.fill(BatchFill{lineAddr, state, replWay}, line.Data, line.Data, homeID, &p)
	h.flush()
	return p, lat, nil
}

// EncodeFillData is the non-inclusive variant (§IV-C): the response
// data is supplied directly and need not be resident in the home cache
// (a Haswell-EP-style Home Agent forwards lines it does not cache).
// References still come from home-cached, WMT-tracked lines; the filled
// line only becomes a future reference if the home happens to cache it.
func (h *HomeEnd) EncodeFillData(lineAddr uint64, data []byte, state cache.State, replWay int) (Payload, FillLatency, error) {
	if len(data) != h.lineSize {
		return Payload{}, FillLatency{}, fmt.Errorf("core: EncodeFillData %#x: %dB line, want %dB", lineAddr, len(data), h.lineSize)
	}
	// Only a Shared line the home happens to cache becomes a reference.
	var cached []byte
	var homeID cache.LineID
	if state == cache.Shared {
		if line, id, ok := h.home.Probe(lineAddr); ok {
			cached, homeID = line.Data, id
		}
	}
	var p Payload
	lat := h.fill(BatchFill{lineAddr, state, replWay}, data, cached, homeID, &p)
	h.flush()
	return p, lat, nil
}

func (h *HomeEnd) errNotPresent(lineAddr uint64) error {
	return fmt.Errorf("core: EncodeFill %#x: line not present in home cache %q", lineAddr, h.home.Config().Name)
}

// payloadClass maps a winning payload to its encoding class.
func payloadClass(p *Payload) obs.EncodeClass {
	switch {
	case !p.Compressed:
		return obs.ClassRaw
	case len(p.Refs) == 0:
		return obs.ClassStandalone
	default:
		return obs.DiffClass(len(p.Refs))
	}
}

// OnRemoteEviction processes an explicit (non-silent) eviction notice:
// the remote slot no longer holds the line, so it cannot serve as a
// reference. seq is the eviction's EvictSeq; processing it advances the
// acknowledged sequence echoed in future responses.
func (h *HomeEnd) OnRemoteEviction(rSlot cache.LineID, seq uint64) {
	h.mx.htRemoves.Add(h.shard, h.noteDisplacement(rSlot))
	if seq > h.AckSeq {
		h.AckSeq = seq
	}
}

// OnHomeEviction must be called before the home cache evicts lineAddr
// (with inclusive caches this also back-invalidates the remote copy).
// It scrubs the WMT entry and hash-table signatures.
func (h *HomeEnd) OnHomeEviction(lineAddr uint64) { h.scrub(lineAddr) }

// OnUpgrade processes a shared→modified upgrade request: the remote
// copy is about to be written, so the line must stop serving as a
// reference on both sides (§III-F).
func (h *HomeEnd) OnUpgrade(lineAddr uint64) { h.scrub(lineAddr) }

// scrub stops lineAddr from serving as a reference: its WMT entry and
// hash-table signatures go.
func (h *HomeEnd) scrub(lineAddr uint64) {
	line, homeID, ok := h.home.Probe(lineAddr)
	if !ok {
		return
	}
	h.wmt.ClearHome(homeID)
	h.mx.htRemoves.Add(h.shard, h.removeLine(line.Data, homeID))
}

// DecodeWritebackFrom is the write-back decoder: it reconstructs the
// line from the remote end's image at br (Payload.AppendTo's layout),
// leaving br after the image's last bit, and counts the decode once the
// header has parsed. Reference RemoteLIDs are translated through the
// WMT back to home positions (§III-G). The result aliases this end's
// decode scratch and is valid until the next decode; retainers must copy.
func (h *HomeEnd) DecodeWritebackFrom(br *bits.Reader) ([]byte, error) {
	line, spanBits, err := h.scr.receive(br, h.engine, h.lineSize, func(rid cache.LineID) ([]byte, error) {
		homeID, ok := h.wmt.Reverse(rid)
		if !ok {
			return nil, fmt.Errorf("core: writeback references untracked remote slot %v: %w", rid, ErrBadReference)
		}
		if l := h.home.ReadByID(homeID); l != nil {
			return l.Data, nil
		}
		return nil, fmt.Errorf("core: WMT maps %v to empty home slot %v: %w", rid, homeID, ErrBadReference)
	})
	if spanBits < 0 {
		return nil, err
	}
	h.Stats.WBDecodes++
	h.mx.wbDecodes.Inc(h.shard)
	if h.rec != nil {
		h.rec.Span(h.recTrack, obs.EvWBDecode, spanBits)
	}
	return line, err
}
