package core

import (
	"fmt"

	"cable/internal/obs"
)

// Config holds the CABLE framework parameters studied in §VI.
type Config struct {
	// MaxSearchSigs bounds signatures extracted per search; 16 for
	// 64-byte lines (§III-C).
	MaxSearchSigs int
	// AccessCount is how many pre-ranked candidates are read from the
	// data array for final ranking — 6 by default, swept in Fig 22.
	AccessCount int
	// MaxRefs is the number of references the DIFF may use (3).
	MaxRefs int
	// BucketDepth is the hash-table bucket size (2).
	BucketDepth int
	// InsertSigs is how many signatures are inserted per line when
	// synchronizing the hash tables — 2 in the paper, kept low to
	// limit hash collisions (§III-B). Ablation parameter.
	InsertSigs int
	// HashSizeFactor scales the hash table relative to "full-sized"
	// (= one entry per home-cache line): 1.0 full, 0.5 half, 2.0
	// double. Swept in Fig 21.
	HashSizeFactor float64
	// StandaloneThreshold: if compressing without references reaches
	// this ratio, skip the reference search entirely (§III-E, 16×).
	StandaloneThreshold float64
	// EngineName selects the delegated compression algorithm.
	EngineName string
	// SigSeed seeds the H3 hash; both link ends must agree.
	SigSeed int64
	// PointerBitsOverride, when > 0, replaces the geometry-derived
	// RemoteLID width in payload accounting — the §III-D ablation
	// that prices references at full tag width (e.g. 40 bits) as if
	// the WMT did not exist.
	PointerBitsOverride int
	// WritebackCompression enables remote→home compression. It is
	// disabled for non-inclusive hierarchies (§IV-C).
	WritebackCompression bool
	// Metrics, when non-nil, scopes this link's obs counters to a
	// private registry instead of the process default. Memoized
	// experiment cells use this so a cell's metric delta can be
	// captured once and replayed on cache hits. Not part of the
	// behavioral configuration: it never affects simulated results and
	// is excluded from content digests.
	Metrics *obs.Registry `digest:"-"`
}

// DefaultConfig returns the paper's baseline parameters.
func DefaultConfig() Config {
	return Config{
		MaxSearchSigs:        16,
		AccessCount:          6,
		MaxRefs:              3,
		BucketDepth:          2,
		InsertSigs:           2,
		HashSizeFactor:       1.0,
		StandaloneThreshold:  16,
		EngineName:           "lbe",
		SigSeed:              0xCAB1E,
		WritebackCompression: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxRefs < 0 || c.MaxRefs > 3 {
		return fmt.Errorf("core: MaxRefs %d outside 0..3 (2-bit refcount field)", c.MaxRefs)
	}
	if c.AccessCount < 1 {
		return fmt.Errorf("core: AccessCount %d < 1", c.AccessCount)
	}
	if c.BucketDepth < 1 {
		return fmt.Errorf("core: BucketDepth %d < 1", c.BucketDepth)
	}
	if c.InsertSigs < 1 {
		return fmt.Errorf("core: InsertSigs %d < 1", c.InsertSigs)
	}
	if c.HashSizeFactor <= 0 {
		return fmt.Errorf("core: HashSizeFactor %v <= 0", c.HashSizeFactor)
	}
	if c.MaxSearchSigs < 1 {
		return fmt.Errorf("core: MaxSearchSigs %d < 1", c.MaxSearchSigs)
	}
	return nil
}

// Latency constants from Table IV / §IV-D, in core cycles. CABLE is
// modeled at its worst case throughout, as in the paper.
const (
	// SearchLatencyWorst is the full 16-signature search (§IV-D).
	SearchLatencyWorst = 16
	// SearchLatencyBest is a search with ≤2 signatures.
	SearchLatencyBest = 8
	// CompressLatency covers dictionary build + DIFF production.
	CompressLatency = 32
	// DecompressLatency covers dictionary build + reconstruction.
	DecompressLatency = 16
	// EndToEndLatency is search + compress + decompress.
	EndToEndLatency = SearchLatencyWorst + CompressLatency + DecompressLatency
)
