package link

import "cable/internal/obs"

// linkCounters aggregates wire traffic across every Link in the
// process. Each Link draws its own shard at construction, so the
// per-payload accounting in Send/SendWire stays a handful of
// uncontended atomic adds.
type linkCounters struct {
	payloads    *obs.Counter
	payloadBits *obs.Counter
	wireBits    *obs.Counter
	toggles     *obs.Counter
}

// linkMetricsIn resolves the counter block against reg (nil: the
// process default) plus a fresh shard for the calling link. Registry
// lookups are idempotent, so every link of a registry shares the
// underlying counters.
func linkMetricsIn(r *obs.Registry) (linkCounters, uint32) {
	return linkCounters{
		payloads:    r.Counter("link.payloads"),
		payloadBits: r.Counter("link.payload_bits"),
		wireBits:    r.Counter("link.wire_bits"),
		toggles:     r.Counter("link.toggles"),
	}, obs.NextShard()
}
