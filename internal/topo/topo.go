// Package topo is the discrete-event N-chip topology engine: it
// generalizes the two-chip simulators in internal/sim to arbitrary
// chip counts wired as a ring, a 2D mesh (XY routing), or a star, with
// one CABLE home/remote end pair per directed link.
//
// The engine runs in three passes (see run.go):
//
//  1. Schedule (serial DES): a calendar queue pops events in exact
//     (time, seq) order — one FIFO slot per cycle of a 256-cycle window;
//     later events wait in a heap and enter their slot before any direct
//     push can — and drives per-chip arrival processes through each
//     chip's shared encoder queue and each directed link's FIFO wire
//     queue at raw line cost. This discovers, per link, the exact ordered
//     transfer sequence (the frozen content schedule) and the raw makespan.
//  2. Encode (parallel by link): each link independently replays its
//     frozen transfer sequence through a private CABLE pipeline (home
//     cache + HomeEnd, remote cache + RemoteEnd, link meter, per-link
//     fault injector), producing the compressed on-wire size of every
//     transfer. Links never share mutable state, so this pass
//     partitions across a bounded worker pool and stays bit-identical
//     at any parallelism.
//  3. Replay (serial DES): the same event-queue simulation as pass 1,
//     re-timed with the measured compressed wire costs, yields the
//     CABLE makespan, per-link utilization and queue delays, and — in
//     recording runs — the per-link flight-recorder windows, sealed in
//     deterministic virtual-time order.
//
// Traffic is read-only fills: line content is a pure function of the
// line address (one shared content function backs every chip), which
// is what makes per-link encode outcomes independent of other links
// and passes 2/3 a pure function of the pass-1 schedule.
package topo

import (
	"errors"
	"fmt"
	"sort"

	"cable/internal/cache"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/obs"
	"cable/internal/sim"
	"cable/internal/trace"
	"cable/internal/workload/spec"
)

// Topology shapes.
const (
	ShapeRing = "ring"
	ShapeMesh = "mesh"
	ShapeStar = "star"
)

// Config drives one topology simulation. Every field except the ones
// tagged `digest:"-"` (Metrics, Recorder, Parallelism) is behavioral
// and folded into Digest; Parallelism only partitions work and cannot
// change any output bit.
type Config struct {
	// Shape is the interconnect: ShapeRing, ShapeMesh (2D, XY routing,
	// most-square factoring of Chips) or ShapeStar (hub is chip 0).
	Shape string
	// Chips is the number of chips (≥2).
	Chips int
	// Benchmark names the workload every chip runs (each chip is a
	// distinct instance with its own access stream over the shared
	// address space).
	Benchmark string
	// Transfers is the target number of per-link transfers (hop
	// crossings). Injection stops once the created messages account
	// for at least this many hops, so the realized count overshoots by
	// at most one route length.
	Transfers int
	// PageLines is the home-interleave granularity in lines (4 KB
	// pages = 64 lines): line addr a is homed on chip
	// (a/PageLines)%Chips.
	PageLines uint64
	// Seed drives the per-chip arrival processes (inter-arrival gaps).
	Seed uint64
	// MeanGap is the mean per-chip inter-arrival gap in link cycles.
	// The default (12) pushes the raw baseline past saturation on a
	// 16-chip mesh — hot XY links queue heavily — so the
	// bandwidth-starved regime the paper targets is actually exercised,
	// while the compressed replay stays below the knee.
	MeanGap int
	// EncodeCycles is each chip's encoder occupancy per transfer: all
	// of a chip's outgoing links share one encoder (the shared-home
	// contention point), so transfers serialize through it. This is the
	// pipeline's initiation interval, not its latency — latency cost is
	// the timing simulator's subject (fig17).
	EncodeCycles int
	// HopCycles is the router forward latency between a link's
	// delivery and the arrival at the next chip's encoder.
	HopCycles int
	// HomeBytes/HomeWays size each directed link's home-side
	// dictionary cache; RemoteBytes/RemoteWays its remote cache.
	HomeBytes, HomeWays     int
	RemoteBytes, RemoteWays int
	Link                    link.Config
	Cable                   core.Config
	// Verify checks every clean decode bit-exact against the home data
	// and panics on mismatch.
	Verify bool
	// Fault configures deterministic wire corruption. Each directed
	// link derives its own injector seed from Fault.Seed and the link
	// index, so fault patterns stay a pure per-link function of the
	// config and the link's transfer sequence.
	Fault fault.Config
	// Parallelism bounds the pass-2 worker pool (0 ⇒ GOMAXPROCS).
	// Observation-only for results: outputs are bit-identical at any
	// setting.
	Parallelism int `digest:"-"`
	// Metrics scopes obs counters (nil ⇒ process default registry).
	Metrics *obs.Registry `digest:"-"`
	// Recorder, when non-nil, attaches a flight recorder with one
	// track per directed link, fed at explicit virtual times during
	// the serial replay pass. Observation-only.
	Recorder *obs.Recorder `digest:"-"`
	// Workload, when non-nil, replaces Benchmark: every chip runs the
	// declarative multi-client mix (variant-decorated per chip, so the
	// chips' streams decorrelate while content stays a pure address
	// function), injecting at the mix's own emission times instead of
	// the uniform gap process. In this mode Transfers is the total
	// access budget, split evenly across chips and run to exhaustion —
	// phase-change fractions are exact over each chip's share — rather
	// than a hop-count stop target. Behavioral: folded into Digest.
	Workload *spec.Workload
	// Replay, when non-empty, replaces Benchmark with recorded
	// captures, one per chip (all of one benchmark), feeding each
	// chip's injected accesses verbatim while injection times still
	// come from the Seed gap process — so captures of the live
	// per-chip streams reproduce the live run bit-identically.
	// Mutually exclusive with Workload. Behavioral: folded into
	// Digest.
	Replay []*trace.Trace
}

// DefaultConfig is the 16-chip mesh the scale-out study uses.
func DefaultConfig(benchmark string) Config {
	cable := core.DefaultConfig()
	// Coherence-link hash tables are quarter-sized (§VI-A), same as
	// the multichip study.
	cable.HashSizeFactor = 0.25
	return Config{
		Shape:     ShapeMesh,
		Chips:     16,
		Benchmark: benchmark,
		Transfers: 200000,
		PageLines: 64,
		Seed:      1,
		MeanGap:   12,
		// The encoder accepts a new line every 4 cycles — every hop
		// re-encodes through the arrival chip's shared encoder, so a
		// longer interval would bottleneck raw and CABLE identically and
		// hide the wire relief this study measures. 4 cycles of router
		// forwarding per hop.
		EncodeCycles: 4,
		HopCycles:    4,
		HomeBytes:    1 << 20, HomeWays: 8,
		RemoteBytes: 256 << 10, RemoteWays: 8,
		Link:   link.DefaultConfig(),
		Cable:  cable,
		Verify: true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Shape {
	case ShapeRing, ShapeMesh, ShapeStar:
	default:
		return fmt.Errorf("topo: unknown shape %q (want %s|%s|%s)", c.Shape, ShapeRing, ShapeMesh, ShapeStar)
	}
	if c.Chips < 2 {
		return fmt.Errorf("topo: need ≥2 chips, got %d", c.Chips)
	}
	if c.Transfers <= 0 {
		return fmt.Errorf("topo: need a positive transfer target, got %d", c.Transfers)
	}
	if c.PageLines == 0 || c.MeanGap <= 0 || c.EncodeCycles <= 0 || c.HopCycles < 0 {
		return fmt.Errorf("topo: non-positive timing/interleave parameter")
	}
	home, remote := c.caches("")
	if err := errors.Join(home.Validate(), remote.Validate()); err != nil {
		return fmt.Errorf("topo: %w", err)
	}
	if err := core.CheckPair(home, remote); err != nil {
		return fmt.Errorf("topo: %w", err)
	}
	if c.Workload != nil && len(c.Replay) > 0 {
		return fmt.Errorf("topo: combined workload spec + replay is not supported in topology runs (replay spec captures through the memlink driver)")
	}
	if c.Workload != nil && c.Benchmark != "" {
		return fmt.Errorf("topo: Benchmark and Workload are mutually exclusive")
	}
	if len(c.Replay) > 0 {
		if c.Benchmark != "" {
			return fmt.Errorf("topo: Benchmark and Replay are mutually exclusive")
		}
		if len(c.Replay) != c.Chips {
			return fmt.Errorf("topo: %d replay captures for %d chips (need one per chip)", len(c.Replay), c.Chips)
		}
		for i, t := range c.Replay {
			if t.Header.Benchmark != c.Replay[0].Header.Benchmark {
				return fmt.Errorf("topo: replay captures mix benchmarks %q (chip 0) and %q (chip %d)",
					c.Replay[0].Header.Benchmark, t.Header.Benchmark, i)
			}
		}
	}
	if c.Benchmark == "" && c.Workload == nil && len(c.Replay) == 0 {
		return fmt.Errorf("topo: no benchmark, workload, or replay configured")
	}
	return nil
}

// caches returns the geometries of a link's two caches, name
// suffixing their names.
func (c Config) caches(name string) (home, remote cache.Config) {
	return cache.Config{Name: "topo-h" + name, SizeBytes: c.HomeBytes, Ways: c.HomeWays, LineSize: 64},
		cache.Config{Name: "topo-r" + name, SizeBytes: c.RemoteBytes, Ways: c.RemoteWays, LineSize: 64}
}

// Digest fingerprints every behavioral field with the sim package's
// canonical encoder, so topology cells share the experiments' memo map
// with the other simulators without aliasing.
func (c Config) Digest() sim.Digest { return sim.DigestOf(c) }

// linkFaultConfig derives directed link li's injector configuration:
// same rates, a per-link decorrelated seed.
func linkFaultConfig(base fault.Config, li int) fault.Config {
	s := base.Seed + uint64(li)*0x9E3779B97F4A7C15
	base.Seed = splitmix64(&s)
	return base
}

// splitmix64 advances *s and returns the next value of the stream
// (same generator the fault injector uses).
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// linkMeta is one directed link's identity.
type linkMeta struct {
	src, dst int32
	name     string // "src->dst", zero-padded so dumps sort naturally
}

// Topology is the static interconnect: the directed link set (in
// deterministic construction order — ascending source, then ascending
// destination) and the routing function.
type Topology struct {
	shape  string
	chips  int
	w, h   int // mesh dimensions (w ≤ h); 0 for other shapes
	links  []linkMeta
	linkAt []int32 // [src*chips+dst] → link index, -1 if not adjacent
}

// meshDims factors n into the most-square w×h grid with w ≤ h.
func meshDims(n int) (w, h int) {
	w = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			w = d
		}
	}
	return w, n / w
}

// buildTopology enumerates the directed links of a validated config.
func buildTopology(shape string, chips int) (*Topology, error) {
	t := &Topology{shape: shape, chips: chips, linkAt: make([]int32, chips*chips)}
	for i := range t.linkAt {
		t.linkAt[i] = -1
	}
	if shape == ShapeMesh {
		t.w, t.h = meshDims(chips)
	}
	neighbors := func(src int) []int {
		var ns []int
		switch shape {
		case ShapeRing:
			ns = append(ns, (src+1)%chips)
			if p := (src - 1 + chips) % chips; p != ns[0] {
				ns = append(ns, p)
			}
		case ShapeStar:
			if src == 0 {
				for d := 1; d < chips; d++ {
					ns = append(ns, d)
				}
			} else {
				ns = append(ns, 0)
			}
		case ShapeMesh:
			x, y := src%t.w, src/t.w
			if x > 0 {
				ns = append(ns, src-1)
			}
			if x < t.w-1 {
				ns = append(ns, src+1)
			}
			if y > 0 {
				ns = append(ns, src-t.w)
			}
			if y < t.h-1 {
				ns = append(ns, src+t.w)
			}
		}
		sort.Ints(ns)
		return ns
	}
	for src := 0; src < chips; src++ {
		for _, dst := range neighbors(src) {
			t.linkAt[src*chips+dst] = int32(len(t.links))
			t.links = append(t.links, linkMeta{
				src: int32(src), dst: int32(dst),
				name: fmt.Sprintf("%02d->%02d", src, dst),
			})
		}
	}
	if len(t.links) == 0 {
		return nil, fmt.Errorf("topo: %s with %d chips has no links", shape, chips)
	}
	return t, nil
}

// nextHop returns the next chip on the route from u toward dst (u ≠
// dst). Ring routes take the shorter direction (ties go clockwise);
// meshes route X-then-Y; stars go through hub 0.
func (t *Topology) nextHop(u, dst int) int {
	switch t.shape {
	case ShapeRing:
		fwd := (dst - u + t.chips) % t.chips
		if fwd <= t.chips-fwd {
			return (u + 1) % t.chips
		}
		return (u - 1 + t.chips) % t.chips
	case ShapeStar:
		if u == 0 {
			return dst
		}
		return 0
	default: // mesh, XY
		ux, uy := u%t.w, u/t.w
		dx, dy := dst%t.w, dst/t.w
		switch {
		case ux < dx:
			return u + 1
		case ux > dx:
			return u - 1
		case uy < dy:
			return u + t.w
		default:
			return u - t.w
		}
	}
}

// route appends the directed link indices from src to dst onto buf.
func (t *Topology) route(src, dst int, buf []int32) []int32 {
	for u := src; u != dst; {
		v := t.nextHop(u, dst)
		li := t.linkAt[u*t.chips+v]
		if li < 0 {
			panic(fmt.Sprintf("topo: no link %d->%d on a %s route %d->%d", u, v, t.shape, src, dst))
		}
		buf = append(buf, li)
		u = v
	}
	return buf
}
