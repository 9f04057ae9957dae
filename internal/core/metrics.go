package core

import (
	"fmt"

	"cable/internal/obs"
)

// MaxRefsLimit is the architectural ceiling on references per payload
// (the 2-bit refcount field, enforced by Config.Validate).
const MaxRefsLimit = 3

// This file threads the encode/decode hot paths into the global metrics
// registry (internal/obs). Every link end resolves its counter pointers
// once at construction and draws a private shard index, so a
// steady-state increment is one uncontended atomic add on a padded
// cache line — cheap enough to leave enabled everywhere, including
// BenchmarkEncodeFill, which must stay at 0 allocs/op.
//
// The per-end HomeStats/RemoteStats structs count one link: HomeStats is
// what sim.MemLinkResult.Home reports (the breakdown experiment's class
// mix), RemoteStats is read by tests only. The registry aggregates the
// same events process-wide so `-metrics` can see across every link of
// every experiment cell.

// homeCounters is the resolved counter block for home-end encoders.
// All home ends share the counter objects (they are process-wide
// aggregates); each end contributes through its own shard.
type homeCounters struct {
	fills          *obs.Counter
	thresholdSkips *obs.Counter
	sigsSearched   *obs.Counter
	htProbes       *obs.Counter // hash-table lookups issued
	htHits         *obs.Counter // LineIDs returned by those lookups
	htInserts      *obs.Counter
	htRemoves      *obs.Counter
	htCollisions   *obs.Counter // inserts that displaced a live entry
	candidatesRead *obs.Counter // data-array reads during ranking
	wmtHits        *obs.Counter
	wmtMisses      *obs.Counter
	outcomeRaw     *obs.Counter
	outcomeStand   *obs.Counter
	outcomeDiff    *obs.Counter
	refsUsed       [MaxRefsLimit + 1]*obs.Counter
	payloadBits    *obs.Counter
	sourceBits     *obs.Counter
	wbDecodes      *obs.Counter
	payloadDist    *obs.Histogram
}

// remoteCounters is the resolved block for remote-end decoders and
// write-back encoders.
type remoteCounters struct {
	fillDecodes   *obs.Counter
	evictRescues  *obs.Counter // references served by the eviction buffer
	evictBuffered *obs.Counter // evictions entering the buffer
	writebacks    *obs.Counter
	wbRaw         *obs.Counter
	wbStandalone  *obs.Counter
	wbDiff        *obs.Counter
	wbPayloadBits *obs.Counter
	htInserts     *obs.Counter
	htRemoves     *obs.Counter
}

// homeMetricsIn resolves the home counter block against r (nil: the
// process default) plus a fresh shard for the calling end. Registry
// lookups are idempotent, so every end of a registry shares the
// underlying counters.
func homeMetricsIn(r *obs.Registry) (*homeCounters, uint32) {
	hc := &homeCounters{
		fills:          r.Counter("core.fills"),
		thresholdSkips: r.Counter("core.threshold_skips"),
		sigsSearched:   r.Counter("core.sigs_searched"),
		htProbes:       r.Counter("core.ht_probes"),
		htHits:         r.Counter("core.ht_hits"),
		htInserts:      r.Counter("core.ht_inserts"),
		htRemoves:      r.Counter("core.ht_removes"),
		htCollisions:   r.Counter("core.ht_collisions"),
		candidatesRead: r.Counter("core.candidates_read"),
		wmtHits:        r.Counter("core.wmt_hits"),
		wmtMisses:      r.Counter("core.wmt_misses"),
		outcomeRaw:     r.Counter("core.outcome_raw"),
		outcomeStand:   r.Counter("core.outcome_standalone"),
		outcomeDiff:    r.Counter("core.outcome_diff"),
		payloadBits:    r.Counter("core.payload_bits"),
		sourceBits:     r.Counter("core.source_bits"),
		wbDecodes:      r.Counter("core.wb_decodes"),
		payloadDist:    r.Histogram("core.payload_bits_dist"),
	}
	for i := range hc.refsUsed {
		hc.refsUsed[i] = r.Counter(fmt.Sprintf("core.refs_used_%d", i))
	}
	return hc, obs.NextShard()
}

// remoteMetricsIn is homeMetricsIn's remote-end sibling.
func remoteMetricsIn(r *obs.Registry) (*remoteCounters, uint32) {
	return &remoteCounters{
		fillDecodes:   r.Counter("remote.fill_decodes"),
		evictRescues:  r.Counter("remote.evict_rescues"),
		evictBuffered: r.Counter("remote.evict_buffered"),
		writebacks:    r.Counter("remote.writebacks"),
		wbRaw:         r.Counter("remote.wb_raw"),
		wbStandalone:  r.Counter("remote.wb_standalone"),
		wbDiff:        r.Counter("remote.wb_diff"),
		wbPayloadBits: r.Counter("remote.wb_payload_bits"),
		htInserts:     r.Counter("remote.ht_inserts"),
		htRemoves:     r.Counter("remote.ht_removes"),
	}, obs.NextShard()
}
