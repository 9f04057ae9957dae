package workload

import "cable/internal/obs"

// lineCounters aggregates line-content-cache traffic. Hit/miss/evict
// counts are a pure function of the access stream (direct-mapped cache,
// deterministic addresses), so they are registered non-volatile and
// survive byte-identical metric comparisons at any parallelism.
type lineCounters struct {
	hits      *obs.Counter
	misses    *obs.Counter // lines materialized
	evictions *obs.Counter // slot conflicts that displaced a line
}

// lineMetricsIn resolves the counter block for a generator against r
// (nil: the process default; memoized cells run against private
// registries whose snapshots are merged into the default one) plus a
// fresh shard.
func lineMetricsIn(r *obs.Registry) (lineCounters, uint32) {
	return lineCounters{
		hits:      r.Counter("workload.linecache_hits"),
		misses:    r.Counter("workload.linecache_misses"),
		evictions: r.Counter("workload.linecache_evictions"),
	}, obs.NextShard()
}
