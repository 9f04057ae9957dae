// Package obs is the dependency-free observability layer: a sharded
// atomic counter/histogram registry threaded through the encode hot
// paths, a virtual-time flight recorder, and deterministic snapshot
// export. Telemetry has one reader, the JSON dumps written after a run;
// nothing here reads a wall clock.
//
// Design constraints, in order:
//
//   - The hot path must stay allocation-free and cheap. Counters are
//     cache-line-padded shards; each link end (or scratch, or meter)
//     resolves its counter pointers once at construction and owns a
//     shard index, so a steady-state increment is a single uncontended
//     atomic add with no map lookup and no false sharing.
//   - Snapshots must be deterministic. Shard assignment varies with
//     worker scheduling but sums do not, and JSON map keys marshal in
//     sorted order, so a snapshot of the non-volatile metrics is
//     byte-identical at any Options.Parallelism. Counters that
//     describe the process rather than the simulated workload (the cell
//     memo's own account) are registered as volatile and excluded from
//     deterministic dumps.
//   - Optional hooks (the flight recorder) are nil by default and
//     guarded by a single pointer check.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// NumShards is the number of padded slots per counter. Each link end
// round-robins onto one shard, so concurrent simulation workers update
// disjoint cache lines. Power of two for cheap masking.
const NumShards = 32

// shardCursor round-robins shard assignment across link ends.
var shardCursor atomic.Uint32

// NextShard assigns a shard index to a new counter owner (a link end, a
// compression scratch, a meter). Assignment is round-robin, so ends
// built by different workers land on different cache lines.
func NextShard() uint32 {
	return shardCursor.Add(1) & (NumShards - 1)
}

// slot is one cache-line-padded counter shard: the uint64 plus 56 pad
// bytes fill a 64-byte line, so adjacent shards never false-share.
type slot struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonic sharded counter.
type Counter struct {
	name     string
	volatile bool
	shards   [NumShards]slot
}

// Inc adds 1 on the caller's shard.
func (c *Counter) Inc(shard uint32) { c.shards[shard&(NumShards-1)].v.Add(1) }

// Add adds n on the caller's shard.
func (c *Counter) Add(shard uint32, n uint64) { c.shards[shard&(NumShards-1)].v.Add(n) }

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Value sums every shard.
func (c *Counter) Value() uint64 {
	var s uint64
	for i := range c.shards {
		s += c.shards[i].v.Load()
	}
	return s
}

func (c *Counter) reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

// HistBuckets is the fixed bucket count of a Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const HistBuckets = 32

// Histogram is a log2-bucketed histogram. Buckets are plain atomics
// (one add per observation is rare enough not to shard).
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// merge folds a snapshot of another histogram into this one.
func (h *Histogram) merge(s HistSnapshot) {
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for i := range h.buckets {
		h.buckets[i].Add(s.Log2Buckets[i])
	}
}

// HistAcc accumulates observations in plain (non-atomic) fields so a
// batch-processing hot loop can observe per item and pay the atomic
// cost once: FlushTo folds the whole accumulation into a Histogram with
// one atomic add per touched field. An accumulator belongs to one
// goroutine.
type HistAcc struct {
	Count   uint64
	Sum     uint64
	Buckets [HistBuckets]uint64
}

// Observe records one value locally (same bucketing as
// Histogram.Observe).
func (a *HistAcc) Observe(v uint64) {
	a.Count++
	a.Sum += v
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	a.Buckets[b]++
}

// FlushTo folds the accumulation into h and resets the accumulator.
func (a *HistAcc) FlushTo(h *Histogram) {
	if a.Count == 0 && a.Sum == 0 {
		return
	}
	h.count.Add(a.Count)
	h.sum.Add(a.Sum)
	for i, v := range a.Buckets {
		if v != 0 {
			h.buckets[i].Add(v)
		}
	}
	*a = HistAcc{}
}

// HistSnapshot is the exported form of a Histogram.
type HistSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	// Log2Buckets[i] counts values whose bit length is i.
	Log2Buckets [HistBuckets]uint64 `json:"log2_buckets"`
}

// Registry holds named metrics. Registration takes a lock (rare — once
// per metric name); updates are lock-free on the metric itself. The
// lookups (Counter, VolatileCounter, Histogram) treat a nil *Registry as
// the process default, so a config's unset Metrics field needs no
// translation where it is consumed.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// defaultRegistry is the process-wide registry the hot paths feed.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns (creating on first use) the named counter. A counter
// created here is deterministic: its value depends only on the work
// performed, not on scheduling, so it is included in snapshots used for
// byte-identical comparison.
func (r *Registry) Counter(name string) *Counter { return r.counter(name, false) }

// VolatileCounter returns a counter excluded from deterministic
// snapshots: one whose value describes the process, not the simulated
// workload (the cell memo's hits, which -nomemo legitimately changes).
func (r *Registry) VolatileCounter(name string) *Counter { return r.counter(name, true) }

func (r *Registry) counter(name string, volatile bool) *Counter {
	if r == nil {
		r = defaultRegistry
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, volatile: volatile}
	r.counters[name] = c
	return c
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		r = defaultRegistry
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	return h
}

// Reset zeroes every metric (for tests and warm-up boundaries). Metric
// identities survive — resolved pointers held by link ends stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Merge folds a snapshot into this registry, adding counter values and
// accumulating histograms. Metrics named in the snapshot are
// created (non-volatile) if absent — zero-valued entries included, so a
// merge also establishes name-set parity with the snapshot's source.
// Memoized simulation cells use this: a cell runs once against a
// private registry and its snapshot is merged here on every logical
// request, computed or cached, keeping totals request-accurate. One
// lock covers the whole pass, so a concurrent Snapshot sees a merge
// entirely or not at all.
func (r *Registry) Merge(s Snapshot) {
	shard := NextShard()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range s.Counters {
		c, ok := r.counters[name]
		if !ok {
			c = &Counter{name: name}
			r.counters[name] = c
		}
		c.Add(shard, v)
	}
	for name, hs := range s.Histograms {
		h, ok := r.hists[name]
		if !ok {
			h = &Histogram{name: name}
			r.hists[name] = h
		}
		h.merge(hs)
	}
}

// Snapshot is a point-in-time copy of a registry's metrics.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	// Gauges is always empty: there is no gauge type. The member stays
	// because it is part of the dump format — every -metrics file and
	// every golden hash carries its `"gauges": {}` line.
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures the current metric values. With includeVolatile
// false the volatile counters are omitted and the result is
// deterministic for a deterministic workload.
func (r *Registry) Snapshot(includeVolatile bool) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for name, c := range r.counters {
		if c.volatile && !includeVolatile {
			continue
		}
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		for i := range h.buckets {
			hs.Log2Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes an indented JSON snapshot. encoding/json marshals
// map keys in sorted order, so the output is byte-for-byte stable for
// equal metric values.
func (r *Registry) WriteJSON(w io.Writer, includeVolatile bool) error {
	b, err := json.MarshalIndent(r.Snapshot(includeVolatile), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJSONFile dumps a JSON snapshot to path (the -metrics flag).
func (r *Registry) WriteJSONFile(path string, includeVolatile bool) error {
	var sb strings.Builder
	if err := r.WriteJSON(&sb, includeVolatile); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
