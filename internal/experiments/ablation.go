package experiments

import (
	"cable/internal/sim"
	"cable/internal/stats"
)

// Ablation isolates the design choices the paper argues for but does
// not sweep directly:
//
//   - pointer width: 17-bit RemoteLIDs vs 40-bit tags (§III-D claims a
//     57.5% pointer reduction; here the same payload stream is
//     re-accounted with tag-wide pointers),
//   - hash bucket depth (2 in the paper; deeper buckets admit more
//     candidates but more collisions),
//   - insert-signature count (2 in the paper; more signatures make
//     lines easier to find but pollute buckets, §III-B).
func Ablation(opt Options) (*Result, error) {
	t := stats.NewTable("Ablation: CABLE design choices", "ratio")

	// One variant per row; the (variant × benchmark) grid fans out as a
	// single flat cell set. The tag-pointer variant re-accounts the same
	// traffic with 40-bit tags per reference — the encoder decisions
	// shift too (wider pointers make references less attractive), which
	// the paper's WMT avoids.
	variants := []struct {
		row    string
		mutate func(*sim.MemLinkConfig)
	}{
		{"baseline (17b LIDs, depth 2, 2 sigs)", func(*sim.MemLinkConfig) {}},
		{"40b tag pointers (no WMT)", func(c *sim.MemLinkConfig) { c.Chip.TagPointers = true }},
		{"bucket depth 1", func(c *sim.MemLinkConfig) { c.Chip.Cable.BucketDepth = 1 }},
		{"bucket depth 4", func(c *sim.MemLinkConfig) { c.Chip.Cable.BucketDepth = 4 }},
		{"1 insert signatures", func(c *sim.MemLinkConfig) { c.Chip.Cable.InsertSigs = 1 }},
		{"4 insert signatures", func(c *sim.MemLinkConfig) { c.Chip.Cable.InsertSigs = 4 }},
	}
	means, err := sweepMeans(opt, len(variants), sweepSubset(opt), []string{"cable"}, func(vi int, cfg *sim.MemLinkConfig) {
		cfg.WithMeters = false
		variants[vi].mutate(cfg)
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		t.Set(v.row, "ratio", means[vi]["cable"])
	}
	return &Result{ID: "ablation", Table: t, Notes: []string{
		"paper §III-D: LineIDs cut pointer overhead 57.5% vs 40-bit tags; §III-B keeps inserts at 2 signatures to limit collisions",
	}}, nil
}
