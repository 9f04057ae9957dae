package sim

import "cable/internal/obs"

// simCounters aggregates meter traffic process-wide. One shard per
// meterBase, drawn at construction.
type simCounters struct {
	meterTransfers  *obs.Counter
	meterSourceBits *obs.Counter
}

// simMetricsIn resolves the counter block against reg (nil: the process
// default) plus a fresh shard. Registry lookups are idempotent, so every
// meter of a registry shares the underlying counters.
func simMetricsIn(reg *obs.Registry) (simCounters, uint32) {
	return simCounters{
		meterTransfers:  reg.Counter("sim.meter_transfers"),
		meterSourceBits: reg.Counter("sim.meter_source_bits"),
	}, obs.NextShard()
}

// degradeCounters aggregate the graceful-degradation events of the
// protocol drivers: injector-touched transfers, decode failures, and
// the raw re-transfers that recovered them. The block is resolved
// lazily — on the first fault or decode error — so a fault-free run
// registers none of these names and its deterministic `-metrics` dump
// stays byte-identical to a build without the fault layer.
type degradeCounters struct {
	reg   *obs.Registry // nil means the process default
	shard uint32

	faultsInjected *obs.Counter
	decodeErrors   *obs.Counter
	rawFallbacks   *obs.Counter
}

// resolve registers the three names on first use. Registry lookups are
// idempotent, so every block shares the underlying counters while
// drawing a private shard.
func (d *degradeCounters) resolve() *degradeCounters {
	if d.faultsInjected == nil {
		d.faultsInjected = d.reg.Counter("sim.faults_injected")
		d.decodeErrors = d.reg.Counter("sim.decode_errors")
		d.rawFallbacks = d.reg.Counter("sim.raw_fallbacks")
		d.shard = obs.NextShard()
	}
	return d
}
