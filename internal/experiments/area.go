package experiments

import (
	"cable/internal/cache"
	"cable/internal/core"
	"cable/internal/stats"
)

// Tab3 reproduces the Table III area arithmetic: hash-table and WMT
// storage as a percentage of the data cache, plus RemoteLID widths, for
// the off-chip (buffer + on-chip cache) and multi-chip configurations.
// It is arithmetic on cache.Config geometries and builds no cache: the
// three paper-sized ones are ~50 MB of lines, which would set the peak
// resident set of a whole report run for the length of this call.
func Tab3(opt Options) (*Result, error) {
	t := stats.NewTable("Table III: CABLE area overheads",
		"hash-table-%", "wmt-%", "remotelid-bits")

	line := 64
	// Off-chip configuration: 8-way 8MB LLC on chip, 16-way 16MB
	// buffer (§IV-D).
	llc := cache.Config{Name: "llc", SizeBytes: 8 << 20, Ways: 8, LineSize: line}
	buf := cache.Config{Name: "buf", SizeBytes: 16 << 20, Ways: 16, LineSize: line}

	// Buffer side: half-sized hash table (§VI-A's memory-link
	// configuration) + the WMT.
	bufHT := core.NewHashTable(buf.NumLines()/2/2, 2)
	bufWMT, err := core.NewWMT(buf, llc)
	if err != nil {
		return nil, err
	}
	t.Set("off-chip buffer", "hash-table-%", pct(bufHT.SizeBits(buf.LineIDBits()), buf.SizeBytes*8))
	t.Set("off-chip buffer", "wmt-%", pct(bufWMT.SizeBits(buf.WayBits()), buf.SizeBytes*8))
	t.Set("off-chip buffer", "remotelid-bits", float64(llc.LineIDBits()))

	// On-chip cache side: full-sized hash table over LLC lines, no
	// WMT (only home caches keep one); its pointers address the
	// buffer (18-bit HomeLIDs).
	llcHT := core.NewHashTable(llc.NumLines()/2, 2)
	t.Set("on-chip cache", "hash-table-%", pct(llcHT.SizeBits(llc.LineIDBits()), llc.SizeBytes*8))
	t.Set("on-chip cache", "remotelid-bits", float64(buf.LineIDBits()))

	// Multi-chip configuration: 8-way 8MB LLCs both sides,
	// quarter-sized hash tables, one full-sized WMT per link pair
	// (three links per chip in a 4-node system).
	nodeLLC := cache.Config{Name: "node", SizeBytes: 8 << 20, Ways: 8, LineSize: line}
	mcHT := core.NewHashTable(nodeLLC.NumLines()/4/2, 2)
	mcWMT, err := core.NewWMT(nodeLLC, nodeLLC)
	if err != nil {
		return nil, err
	}
	t.Set("multi-chip LLC", "hash-table-%", pct(mcHT.SizeBits(nodeLLC.LineIDBits()), nodeLLC.SizeBytes*8))
	t.Set("multi-chip LLC", "wmt-%", 3*pct(mcWMT.SizeBits(nodeLLC.WayBits()), nodeLLC.SizeBytes*8))
	t.Set("multi-chip LLC", "remotelid-bits", float64(nodeLLC.LineIDBits()))

	return &Result{ID: "tab3", Table: t, Notes: []string{
		"paper Table III: buffer HT 1.76%, on-chip HT 3.32%, multi-chip HT 2.50%; WMT 0.4% / 1.74%; RemoteLIDs 17b/18b/17b",
		"logic overhead (synthesized, not modeled here): 1.48% of an OpenPiton L2 slice",
	}}, nil
}

func pct(bits, totalBits int) float64 { return 100 * float64(bits) / float64(totalBits) }
