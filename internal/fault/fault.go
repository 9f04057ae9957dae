// Package fault injects deterministic, rate-controlled corruption into
// CABLE wire images: independent per-bit flips and whole-image
// truncations, driven by a seeded splitmix64 stream. The simulators use
// it to prove the decode paths degrade gracefully — corrupted traffic
// becomes counted errors and raw-transfer fallbacks, never a panic.
// Same seed and rates give the identical fault pattern on the identical
// transfer stream, so fault-injected runs stay bit-reproducible at any
// parallelism (each simulation owns one injector).
package fault

import "cable/internal/obs"

// Config describes one link's fault model. The zero value disables
// injection entirely: drivers construct no injector and every code path
// stays byte-identical to a fault-free build.
type Config struct {
	// BitRate is the independent per-bit flip probability on each wire
	// image (1e-3 flips ~0.5 bits per 64 B raw line).
	BitRate float64
	// TruncRate is the per-image probability that the frame is cut
	// short at a uniformly-chosen bit boundary before any flips apply.
	TruncRate float64
	// Seed selects the deterministic fault pattern.
	Seed uint64
}

// Enabled reports whether this configuration injects anything.
func (c Config) Enabled() bool { return c.BitRate > 0 || c.TruncRate > 0 }

// Stats counts one injector's activity.
type Stats struct {
	// Images is the number of wire images offered to the injector.
	Images uint64
	// Corrupted is the number of images actually altered — the figure
	// the drivers' decode_errors accounting must match.
	Corrupted uint64
	// BitsFlipped and Truncations break down the corruption applied.
	BitsFlipped uint64
	Truncations uint64
}

// Injector applies the configured faults to wire images in place.
// Not goroutine-safe: one injector per simulation, like the link ends.
type Injector struct {
	cfg   Config
	state uint64
	// thresholds are the rates scaled to the full uint64 range so one
	// rng draw decides each Bernoulli trial.
	bitThresh   uint64
	truncThresh uint64

	// Stats is the authoritative per-injector accounting.
	Stats Stats

	mx    faultCounters
	shard uint32
}

// New builds an injector against the process-default metrics registry.
// It returns nil when cfg injects nothing, so callers gate the fault
// path on a single pointer check and a zero-rate run registers no fault
// metrics at all (keeping `-metrics` dumps byte-identical to a build
// without injection).
func New(cfg Config) *Injector { return NewIn(cfg, nil) }

// NewIn is New with an explicit metrics registry (nil means the
// process default). Memoized experiment cells pass their private
// registry, exactly like the link ends.
func NewIn(cfg Config, reg *obs.Registry) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	in := &Injector{
		cfg:         cfg,
		state:       cfg.Seed,
		bitThresh:   rateToThreshold(cfg.BitRate),
		truncThresh: rateToThreshold(cfg.TruncRate),
	}
	in.mx, in.shard = faultMetricsIn(reg)
	return in
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// rateToThreshold maps a probability in [0,1] to a uint64 comparison
// threshold. float64 has ample precision for the rates studied (1e-6
// and up).
func rateToThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * (1 << 63) * 2)
}

// next advances the splitmix64 stream.
func (in *Injector) next() uint64 {
	in.state += goldenGamma
	return mix(in.state)
}

// goldenGamma is splitmix64's stream increment.
const goldenGamma = 0x9E3779B97F4A7C15

// mix is splitmix64's output function of a stream state.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Corrupt applies the fault model to the first nbits of data in place
// and returns the post-fault bit length (shorter when truncated) and
// whether anything was altered. One rng draw per bit keeps the fault
// pattern a pure function of (seed, transfer stream), independent of
// buffer capacities or scheduling. The per-bit loop draws from a local
// copy of the stream state and counts its flips once per image.
func (in *Injector) Corrupt(data []byte, nbits int) (outBits int, corrupted bool) {
	in.Stats.Images++
	in.mx.images.Inc(in.shard)
	outBits = nbits
	if in.truncThresh > 0 && nbits > 0 && in.next() < in.truncThresh {
		outBits = int(in.next() % uint64(nbits))
		in.Stats.Truncations++
		in.mx.truncations.Inc(in.shard)
		corrupted = true
	}
	if thresh := in.bitThresh; thresh > 0 {
		s, flipped := in.state, uint64(0)
		for pos := 0; pos < outBits; pos++ {
			s += goldenGamma
			if mix(s) < thresh {
				data[pos/8] ^= 0x80 >> uint(pos%8)
				flipped++
			}
		}
		in.state = s
		if flipped > 0 {
			in.Stats.BitsFlipped += flipped
			in.mx.bitsFlipped.Add(in.shard, flipped)
			corrupted = true
		}
	}
	if corrupted {
		in.Stats.Corrupted++
		in.mx.corrupted.Inc(in.shard)
	}
	return outBits, corrupted
}

// faultCounters aggregates injector activity process-wide. The block is
// resolved only when an enabled injector is constructed, so fault-free
// runs never register these metric names.
type faultCounters struct {
	images      *obs.Counter
	corrupted   *obs.Counter
	bitsFlipped *obs.Counter
	truncations *obs.Counter
}

func faultMetricsIn(r *obs.Registry) (faultCounters, uint32) {
	return faultCounters{
		images:      r.Counter("fault.images"),
		corrupted:   r.Counter("fault.corrupted"),
		bitsFlipped: r.Counter("fault.bits_flipped"),
		truncations: r.Counter("fault.truncations"),
	}, obs.NextShard()
}
