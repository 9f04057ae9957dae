package sim

import (
	"math"

	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/trace"
)

// This file derives canonical content digests for simulation configs.
// Two configs with equal digests produce bit-identical simulation
// results: every behavioral field is folded in with a stable, explicit
// encoding (field order is part of the format), while observation-only
// fields (Metrics registries, recorders) are deliberately excluded. The
// experiments' cell memo keys on these digests.
//
// The digest is 128 bits of FNV-1a, computed as two independent 64-bit
// streams over the same bytes (different offset bases), which is far
// past collision range for the handful of distinct cells a report run
// produces.

// Digest is a 128-bit canonical config fingerprint.
type Digest [16]byte

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	// fnvOffsetAlt decorrelates the second 64-bit stream.
	fnvOffsetAlt = 0x6c62272e07bb0142
)

// Digester is a canonical digest stream: the stable folding primitives
// every config digest is built from. It is exported (and satisfies
// spec.Folder) for the workload specs and for simulator packages outside
// sim (internal/topo) whose cells share the experiments' memo map.
// Cross-package digests can never alias: every digest starts with a
// version-tagged string ("topo/v1", "memlink/v1", ...) and the
// length-prefixed string encoding keeps field concatenations unambiguous.
type Digester struct {
	h1, h2 uint64
}

// NewDigester starts a digest stream tagged with a format version string.
func NewDigester(version string) *Digester {
	d := &Digester{h1: fnvOffset64, h2: fnvOffsetAlt}
	d.Str(version)
	return d
}

func (d *Digester) byte(b byte) {
	d.h1 = (d.h1 ^ uint64(b)) * fnvPrime64
	d.h2 = (d.h2 ^ uint64(b)) * fnvPrime64
}

// U64 folds in a uint64, low byte first.
func (d *Digester) U64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

// Int folds in an int.
func (d *Digester) Int(v int) { d.U64(uint64(int64(v))) }

// F64 folds in a float64 (by bit pattern).
func (d *Digester) F64(v float64) { d.U64(math.Float64bits(v)) }

// Bool folds in a bool.
func (d *Digester) Bool(v bool) {
	if v {
		d.byte(1)
	} else {
		d.byte(0)
	}
}

// Str folds in a length-prefixed string, so concatenations can't alias.
func (d *Digester) Str(s string) {
	d.Int(len(s))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

// Replays folds a replay capture list: count, then each capture's
// content digest (which covers header and every record). A nil entry —
// an unset single-capture field — is skipped, so it folds as the empty
// list.
func (d *Digester) Replays(ts ...*trace.Trace) {
	if len(ts) == 1 && ts[0] == nil {
		ts = nil
	}
	d.Int(len(ts))
	for _, t := range ts {
		for _, b := range t.Digest() {
			d.byte(b)
		}
	}
}

// Sum finalizes the 128-bit digest.
func (d *Digester) Sum() Digest {
	var out Digest
	for i := 0; i < 8; i++ {
		out[i] = byte(d.h1 >> (8 * i))
		out[8+i] = byte(d.h2 >> (8 * i))
	}
	return out
}

// CoreConfig folds in a CABLE core configuration.
func (d *Digester) CoreConfig(c core.Config) {
	d.Int(c.MaxSearchSigs)
	d.Int(c.AccessCount)
	d.Int(c.MaxRefs)
	d.Int(c.BucketDepth)
	d.Int(c.InsertSigs)
	d.F64(c.HashSizeFactor)
	d.F64(c.StandaloneThreshold)
	d.Str(c.EngineName)
	d.U64(uint64(c.SigSeed))
	d.Int(c.PointerBitsOverride)
	d.Bool(c.WritebackCompression)
	// c.Metrics is observation-only: excluded.
}

// LinkConfig folds in a link configuration.
func (d *Digester) LinkConfig(c link.Config) {
	d.Int(c.WidthBits)
	d.F64(c.FreqHz)
	d.Bool(c.Packed)
}

// FaultConfig folds in a fault-injection configuration.
func (d *Digester) FaultConfig(c fault.Config) {
	d.F64(c.BitRate)
	d.F64(c.TruncRate)
	d.U64(c.Seed)
}

func (d *Digester) chipConfig(c ChipConfig) {
	d.Int(c.LLCBytes)
	d.Int(c.LLCWays)
	d.Int(c.L4Bytes)
	d.Int(c.L4Ways)
	d.Int(c.LineSize)
	d.byte(byte(c.LLCPolicy))
	d.byte(byte(c.L4Policy))
	d.LinkConfig(c.Link)
	d.CoreConfig(c.Cable)
	d.Bool(c.EnableCable)
	d.Str(c.Scheme)
	d.Bool(c.Verify)
	d.Bool(c.TagPointers)
	d.Bool(c.SilentEvictions)
	// Fault is behavioral: injected corruption changes wire bits and
	// the degradation counters, so it must split memo cells.
	d.FaultConfig(c.Fault)
	// c.Metrics is observation-only: excluded.
}

// Digest fingerprints every behavioral field of the config. Metrics and
// Recorder are excluded: they observe the simulation without altering
// it.
func (c MemLinkConfig) Digest() Digest {
	d := NewDigester("memlink/v1")
	d.chipConfig(c.Chip)
	d.Int(len(c.Benchmarks))
	for _, b := range c.Benchmarks {
		d.Str(b)
	}
	d.Int(c.AccessesPerProgram)
	d.Bool(c.ScaleCachesByPrograms)
	d.Bool(c.WithMeters)
	// Workload and Replay change the access stream, so they split memo
	// cells: distinct specs (or captures) must never alias.
	d.Bool(c.Workload != nil)
	if c.Workload != nil {
		c.Workload.Fold(d)
	}
	d.Replays(c.Replay...)
	return d.Sum()
}

// Digest fingerprints every behavioral field of the config; Recorder
// is excluded (observation-only).
func (c MultiChipConfig) Digest() Digest {
	d := NewDigester("multichip/v1")
	d.Int(c.Nodes)
	d.Str(c.Benchmark)
	d.Int(c.Accesses)
	d.U64(c.PageLines)
	d.Int(c.LLCBytes)
	d.Int(c.LLCWays)
	d.LinkConfig(c.Link)
	d.CoreConfig(c.Cable)
	d.Bool(c.WithMeters)
	d.Bool(c.PooledWMT)
	d.F64(c.PooledWMTFactor)
	d.Bool(c.Verify)
	d.FaultConfig(c.Fault)
	d.Replays(c.Replay)
	return d.Sum()
}

// Digest fingerprints every behavioral field of the config; Recorder
// is excluded (observation-only).
func (c NonInclusiveConfig) Digest() Digest {
	d := NewDigester("noninclusive/v1")
	d.Str(c.Benchmark)
	d.Int(c.Accesses)
	d.Int(c.RemoteBytes)
	d.Int(c.RemoteWays)
	d.Int(c.HomeBytes)
	d.Int(c.HomeWays)
	d.LinkConfig(c.Link)
	d.CoreConfig(c.Cable)
	d.Bool(c.Verify)
	d.FaultConfig(c.Fault)
	d.Replays(c.Replay)
	return d.Sum()
}

// Digest fingerprints every behavioral field of the config; Metrics
// and Recorder are excluded (observation-only).
func (c TimingConfig) Digest() Digest {
	d := NewDigester("timing/v1")
	d.Str(c.Scheme)
	d.Str(c.Benchmark)
	d.Int(c.Threads)
	d.Int(c.TotalTh)
	d.U64(c.InstrPerTh)
	d.U64(c.WarmupPerTh)
	d.F64(c.CoreHz)
	d.Int(c.Private.L1Bytes)
	d.Int(c.Private.L1Ways)
	d.Int(c.Private.L1Cycles)
	d.Int(c.Private.L2Bytes)
	d.Int(c.Private.L2Ways)
	d.Int(c.Private.L2Cycles)
	d.Int(c.Private.LineSize)
	d.Int(c.LLCCycles)
	d.Int(c.L4Cycles)
	d.F64(c.LinkSetupNs)
	d.F64(c.TotalLinkBW)
	d.F64(c.TotalDRAMBW)
	d.Int(c.LLCPerThread)
	d.Int(c.L4Ratio)
	d.Int(c.RequestBits)
	d.LinkConfig(c.Link)
	d.CoreConfig(c.Cable)
	d.Bool(c.OnOff)
	d.F64(c.SampleWindowSec)
	d.Bool(c.NoWorkingSetScale)
	d.Bool(c.Verify)
	d.FaultConfig(c.Fault)
	return d.Sum()
}
